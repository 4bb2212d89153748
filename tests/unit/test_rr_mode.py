"""DP-Box randomized-response mode (zero threshold)."""

import numpy as np
import pytest

from repro import SensorSpec, make_mechanism
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def rr():
    return make_mechanism(
        "rr", SensorSpec(0.0, 1.0), 2.0, input_bits=12, output_bits=16, delta=1 / 64
    )


class TestChannel:
    def test_channel_rows_sum_to_one(self, rr):
        np.testing.assert_allclose(rr.channel_matrix().sum(axis=1), 1.0)

    def test_flip_prob_below_half(self, rr):
        assert 0 < rr.flip_probability < 0.5

    def test_exact_epsilon_finite(self, rr):
        eps = rr.exact_epsilon()
        assert np.isfinite(eps) and eps > 0

    def test_exact_epsilon_matches_channel(self, rr):
        ch = rr.channel_matrix()
        expected = max(
            abs(np.log(ch[0, 0] / ch[1, 0])), abs(np.log(ch[0, 1] / ch[1, 1]))
        )
        assert rr.exact_epsilon() == pytest.approx(expected)

    def test_smaller_epsilon_more_flips(self):
        strong = make_mechanism(
            "rr", SensorSpec(0.0, 1.0), 1.0, input_bits=12, output_bits=16, delta=1 / 64
        )
        weak = make_mechanism(
            "rr", SensorSpec(0.0, 1.0), 4.0, input_bits=12, output_bits=16, delta=1 / 64
        )
        assert strong.flip_probability > weak.flip_probability

    def test_tiny_epsilon_approaches_coin_flip(self):
        # As epsilon shrinks the channel approaches a fair coin: flip
        # probability just below 1/2 and near-zero effective epsilon.
        rr = make_mechanism(
            "rr",
            SensorSpec(0.0, 1.0),
            0.01,
            input_bits=12,
            output_bits=18,
            delta=1 / 64,
        )
        assert 0.45 < rr.flip_probability < 0.5
        assert rr.exact_epsilon() < 0.1


class TestPrivatization:
    def test_outputs_binary(self, rr):
        y = rr.privatize(np.array([0.0, 1.0, 0.0, 1.0]))
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_bits_interface(self, rr):
        out = rr.privatize_bits(np.array([0, 1, 1, 0]))
        assert set(np.unique(out)) <= {0, 1}

    def test_rejects_non_binary_values(self, rr):
        with pytest.raises(ConfigurationError):
            rr.privatize(np.array([0.5]))

    def test_rejects_non_binary_bits(self, rr):
        with pytest.raises(ConfigurationError):
            rr.privatize_bits(np.array([2]))

    def test_empirical_flip_rate_matches_exact(self, rr):
        bits = np.zeros(40000, dtype=int)
        noisy = rr.privatize_bits(bits)
        assert noisy.mean() == pytest.approx(rr._flip_from_m, abs=0.01)

    def test_frequency_estimator(self, rr):
        truth = 0.3
        bits = (np.random.default_rng(0).random(60000) < truth).astype(int)
        est = rr.estimate_frequency(rr.privatize_bits(bits))
        assert est == pytest.approx(truth, abs=0.02)

    def test_estimator_mae_shrinks_with_n(self, rr):
        # Fig. 14: accuracy improves with dataset size.
        rng = np.random.default_rng(1)
        maes = []
        for n in (200, 20000):
            errs = []
            for _ in range(20):
                bits = (rng.random(n) < 0.4).astype(int)
                est = rr.estimate_frequency(rr.privatize_bits(bits))
                errs.append(abs(est - bits.mean()))
            maes.append(np.mean(errs))
        assert maes[1] < maes[0]


class TestCategoricalReHoming:
    """The CategoricalMechanism re-homing is bit-identical (regression).

    Golden values were captured on the pre-refactor scalar path (before
    DpBoxRandomizedResponse implemented the encode/perturb protocol);
    the release path is unchanged, so fixed seeds must reproduce them
    exactly, bit for bit.
    """

    GOLDEN_IN = [0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0, 1, 1]
    GOLDEN_OUT = [0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1]

    def _mechanism(self, seed):
        from repro.rng import SplitStreamSource

        return make_mechanism(
            "rr", SensorSpec(0.0, 1.0), 2.0, input_bits=14,
            source=SplitStreamSource(seed),
        )

    def test_privatize_bits_golden(self):
        m = self._mechanism(20260808)
        out = m.privatize_bits(np.array(self.GOLDEN_IN))
        np.testing.assert_array_equal(out, np.array(self.GOLDEN_OUT))

    def test_privatize_endpoints_golden(self):
        m = self._mechanism(7)
        out = m.privatize(np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0]))
        np.testing.assert_array_equal(
            out, np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        )

    def test_exact_channel_golden(self):
        m = self._mechanism(0)
        assert m._flip_from_m == 0.18536376953125
        assert m._flip_from_M == 0.1824951171875
        assert m.exact_epsilon() == pytest.approx(1.4960182530894193, abs=1e-12)
        est = m.estimate_frequency(np.array(self.GOLDEN_OUT))
        assert est == pytest.approx(0.40112967075407935, abs=1e-12)

    def test_report_equals_privatize_bits(self):
        # The protocol composition (encode -> perturb) and the legacy
        # entry point consume the same stream, so they agree exactly.
        bits = np.array(self.GOLDEN_IN)
        out_report = self._mechanism(11).report(bits)
        out_legacy = self._mechanism(11).privatize_bits(bits)
        np.testing.assert_array_equal(out_report, out_legacy)

    def test_categorical_metadata(self):
        m = self._mechanism(0)
        assert m.n_categories == 2
        assert m.report_bits == 1
        p, q = m.estimator_params()
        assert p == 1.0 - m._flip_from_M
        assert q == m._flip_from_m
        counts = m.support_counts(np.array(self.GOLDEN_OUT))
        assert counts.tolist() == [9, 7]

    def test_encode_rejects_non_bits(self):
        with pytest.raises(ConfigurationError):
            self._mechanism(0).encode(np.array([0, 2]))


class TestDebias:
    """``estimate_frequency`` inverts the symmetrized channel and clips."""

    def test_identity_at_truth(self, rr):
        # Reports whose 1-frequency equals its expectation debias back to
        # f.  The flip probabilities are dyadic, so 2**20 reports hold
        # that expectation exactly.
        keep = 1.0 - 0.5 * (rr._flip_from_m + rr._flip_from_M)
        n = 1 << 20
        for f in (0.0, 0.25, 0.5, 1.0):
            ones = (keep * f + (1.0 - keep) * (1.0 - f)) * n
            assert ones == int(ones)
            bits = np.zeros(n, dtype=int)
            bits[: int(ones)] = 1
            assert rr.estimate_frequency(bits) == pytest.approx(f, abs=1e-12)

    def test_clipping(self, rr):
        assert rr.estimate_frequency(np.zeros(100, dtype=int)) == 0.0
        assert rr.estimate_frequency(np.ones(100, dtype=int)) == 1.0
