"""Histogram query: naive numeric route vs categorical k-RR route."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mechanisms import SensorSpec, make_mechanism
from repro.queries.histogram import HistogramQuery, bucketize, histogram_via_krr
from repro.rng import SplitStreamSource

SENSOR = SensorSpec(0.0, 8.0)


class TestBucketize:
    def test_edges(self):
        idx = bucketize(np.array([0.0, 3.9, 4.0, 8.0]), SENSOR, 2)
        np.testing.assert_array_equal(idx, [0, 0, 1, 1])

    def test_out_of_range_clipped(self):
        idx = bucketize(np.array([-5.0, 50.0]), SENSOR, 4)
        np.testing.assert_array_equal(idx, [0, 3])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bucketize(np.array([1.0]), SENSOR, 1)


class TestHistogramQuery:
    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(0).normal(3.0, 1.0, 4000).clip(0, 8)

    def test_frequencies_sum_to_one(self, data):
        q = HistogramQuery(SENSOR, n_buckets=8)
        assert q.frequencies(data).sum() == pytest.approx(1.0)

    def test_evaluate_is_focus_bucket(self, data):
        q = HistogramQuery(SENSOR, n_buckets=8, focus_bucket=3)
        assert q.evaluate(data) == pytest.approx(q.frequencies(data)[3])

    def test_focus_validation(self):
        with pytest.raises(ConfigurationError):
            HistogramQuery(SENSOR, n_buckets=4, focus_bucket=4)

    def test_l1_error_zero_on_identical(self, data):
        q = HistogramQuery(SENSOR, n_buckets=8)
        assert q.l1_error(data, data) == 0.0

    def test_naive_numeric_route_smears(self, data):
        q = HistogramQuery(SENSOR, n_buckets=8)
        mech = make_mechanism(
            "thresholding", SENSOR, 0.5, input_bits=12, output_bits=16, delta=8 / 64
        )
        noisy = mech.privatize(data)
        err = q.l1_error(noisy, data)
        assert err > 0.3  # λ = 16 ≫ bucket width 1: mass smeared badly


class TestKrrRoute:
    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(1).normal(3.0, 1.0, 8000).clip(0, 8)

    def test_estimates_on_simplex(self, data):
        est = histogram_via_krr(
            data, SENSOR, 8, epsilon=1.0, source=SplitStreamSource(2)
        )
        assert est.sum() == pytest.approx(1.0)
        assert est.min() >= 0

    def test_accuracy(self, data):
        q = HistogramQuery(SENSOR, n_buckets=8)
        truth = q.frequencies(data)
        errs = [
            np.abs(
                histogram_via_krr(
                    data, SENSOR, 8, epsilon=1.0, source=SplitStreamSource(s)
                )
                - truth
            ).sum()
            for s in range(6)
        ]
        assert np.mean(errs) < 0.2

    def test_krr_beats_naive_numeric_route(self, data):
        """The categorical channel dominates for histogram questions."""
        q = HistogramQuery(SENSOR, n_buckets=8)
        truth = q.frequencies(data)
        mech = make_mechanism(
            "thresholding", SENSOR, 1.0, input_bits=12, output_bits=16, delta=8 / 64
        )
        errs_naive, errs_krr = [], []
        for seed in range(5):
            noisy = mech.privatize(data)
            errs_naive.append(np.abs(q.frequencies(noisy) - truth).sum())
            est = histogram_via_krr(
                data, SENSOR, 8, epsilon=1.0, source=SplitStreamSource(seed)
            )
            errs_krr.append(np.abs(est - truth).sum())
        assert np.mean(errs_krr) < 0.5 * np.mean(errs_naive)

    def test_improves_with_n(self):
        rng = np.random.default_rng(4)
        full = rng.normal(3.0, 1.0, 30000).clip(0, 8)
        q = HistogramQuery(SENSOR, n_buckets=8)
        errs = []
        for n in (500, 30000):
            sample = full[:n]
            truth = q.frequencies(sample)
            est = histogram_via_krr(
                sample, SENSOR, 8, epsilon=1.0, source=SplitStreamSource(5)
            )
            errs.append(np.abs(est - truth).sum())
        assert errs[1] < errs[0]
