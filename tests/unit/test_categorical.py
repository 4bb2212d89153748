"""Categorical reports on the release pipeline: k-RR and one-hot (OUE).

Both arms realize their channels on dyadic thresholds ``t / 2**bits``
through :class:`~repro.runtime.ReleasePipeline`; the estimates invert
the realized ``(p, q)``.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mechanisms import (
    KaryRandomizedResponse,
    OptimizedUnaryEncoding,
    SensorSpec,
    make_oracle,
)
from repro.queries import estimate_frequencies, histogram_via_krr
from repro.rng import SplitStreamSource


@pytest.fixture(scope="module")
def truth():
    rng = np.random.default_rng(0)
    return rng.choice(4, size=40000, p=[0.5, 0.25, 0.15, 0.1])


def _true_f(values):
    return np.bincount(values, minlength=4) / values.size


class TestKRR:
    def test_channel_rows_sum_to_one(self):
        for g in (2, 3, 5, 16):
            o = KaryRandomizedResponse(g, 1.0)
            p, q = o.estimator_params()
            ch = np.full((g, g), q)
            np.fill_diagonal(ch, p)
            # Dyadic probabilities: the rows sum to 1 with no rounding.
            assert (ch.sum(axis=1) == 1.0).all()

    def test_exact_epsilon_matches_configured(self):
        for eps in (0.5, 1.0, 2.0):
            o = KaryRandomizedResponse(4, eps)
            p, q = o.estimator_params()
            assert o.exact_epsilon() == pytest.approx(math.log(p / q), abs=1e-12)
            assert eps - 1e-3 < o.exact_epsilon() <= eps

    def test_binary_case_reduces_to_warner(self):
        # d = 2 keeps at or just below Warner's e^ε / (1 + e^ε).
        for eps in (0.2, 0.5, 1.0, 2.0, 3.5):
            o = KaryRandomizedResponse(2, eps)
            warner = math.exp(eps) / (1.0 + math.exp(eps))
            keep = o.estimator_params()[0]
            assert keep <= warner, eps
            assert warner - keep <= 2.0 ** -o.bits, eps

    def test_reports_valid_categories(self, truth):
        o = KaryRandomizedResponse(4, 1.0, source=SplitStreamSource(1))
        out = o.report(truth)
        assert out.shape == truth.shape
        assert out.min() >= 0 and out.max() < 4

    def test_keep_rate_matches(self, truth):
        o = KaryRandomizedResponse(4, 1.0, source=SplitStreamSource(2))
        out = o.report(truth)
        assert np.mean(out == truth) == pytest.approx(
            o.estimator_params()[0], abs=0.01
        )

    def test_frequency_estimation(self, truth):
        o = KaryRandomizedResponse(4, 1.0, source=SplitStreamSource(3))
        est = estimate_frequencies(o, o.report(truth))
        np.testing.assert_allclose(est.frequencies, _true_f(truth), atol=0.02)

    def test_estimates_on_simplex(self, truth):
        # 100 reports at ε = 0.2: raw estimates leave the simplex; the
        # histogram route clips and renormalizes them back onto it.
        est = histogram_via_krr(
            truth[:100], SensorSpec(0.0, 4.0), 4, epsilon=0.2,
            source=SplitStreamSource(4),
        )
        assert est.sum() == pytest.approx(1.0)
        assert est.min() >= 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            KaryRandomizedResponse(1, 1.0)
        with pytest.raises(ConfigurationError):
            KaryRandomizedResponse(3, 0.0)
        with pytest.raises(ConfigurationError):
            KaryRandomizedResponse(3, 1.0).report(np.array([3]))
        with pytest.raises(ConfigurationError):
            KaryRandomizedResponse(3, 1.0).report(np.array([0.5]))


class TestOneHotRappor:
    """One-hot reports: the OUE arm, unary encoding with a 1/2 keep."""

    def test_exact_epsilon_matches_configured(self):
        for eps in (0.5, 1.0, 2.0):
            o = OptimizedUnaryEncoding(4, eps)
            assert eps - 1e-3 < o.exact_epsilon() <= eps

    def test_bit_matrix_shape(self, truth):
        o = OptimizedUnaryEncoding(4, 1.0, source=SplitStreamSource(5))
        bits = o.report(truth[:100])
        assert bits.shape == (100, 4)
        assert set(np.unique(bits)) <= {0, 1}

    def test_frequency_estimation(self, truth):
        o = OptimizedUnaryEncoding(4, 2.0, source=SplitStreamSource(6))
        est = estimate_frequencies(o, o.report(truth))
        np.testing.assert_allclose(est.frequencies, _true_f(truth), atol=0.03)

    def test_both_estimators_converge_with_n(self, truth):
        true_f = _true_f(truth)
        for kind in ("krr", "oue"):
            errs = []
            for n in (500, 20000):
                o = make_oracle(kind, 4, 1.0, source=SplitStreamSource(9))
                est = estimate_frequencies(o, o.report(truth[:n])).normalized()
                errs.append(np.abs(est - true_f).sum())
            assert errs[1] < errs[0], kind

    def test_high_epsilon_tightens_both(self, truth):
        # At ε=4 both estimate well, and both improve over their own
        # ε=1 error.
        true_f = _true_f(truth)
        sample = truth[:2000]
        for kind in ("krr", "oue"):
            per_eps = {}
            for eps in (1.0, 4.0):
                errs = []
                for seed in range(8):
                    o = make_oracle(kind, 4, eps, source=SplitStreamSource(seed))
                    est = estimate_frequencies(o, o.report(sample)).normalized()
                    errs.append(np.abs(est - true_f).sum())
                per_eps[eps] = float(np.median(errs))
            assert per_eps[4.0] < per_eps[1.0], kind
            assert per_eps[4.0] < 0.08

    def test_bit_matrix_validation(self):
        o = OptimizedUnaryEncoding(4, 1.0)
        with pytest.raises(ConfigurationError):
            estimate_frequencies(o, np.zeros((10, 3), dtype=np.int64))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OptimizedUnaryEncoding(1, 1.0)
        with pytest.raises(ConfigurationError):
            OptimizedUnaryEncoding(3, -1.0)
