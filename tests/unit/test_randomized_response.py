"""Warner randomized response on the release pipeline: k-RR at d = 2.

Binary randomized response is the k-RR oracle with two categories.  Its
keep probability is the dyadic ``t_keep / 2**bits`` at or just below
Warner's ``e^ε / (1 + e^ε)``, and the debiased estimate inverts that
realized channel.
"""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mechanisms import KaryRandomizedResponse
from repro.queries import estimate_frequencies, estimate_from_counts
from repro.rng import SplitStreamSource


def _rr(epsilon, seed=0, **kwargs):
    return KaryRandomizedResponse(2, epsilon, source=SplitStreamSource(seed), **kwargs)


class TestEpsilonMapping:
    def test_roundtrip(self):
        # ε -> realized keep probability p -> ln(p / (1 - p)): never above
        # the target and within a grid step of it.
        for eps in (0.1, 0.5, 1.0, 2.0):
            rr = _rr(eps)
            p = rr.estimator_params()[0]
            assert rr.exact_epsilon() == pytest.approx(math.log(p / (1 - p)), abs=1e-12)
            assert eps - 1e-3 < rr.exact_epsilon() <= eps

    def test_known_value(self):
        # eps = ln 3 <-> p = 3/4, which the 16-bit grid holds exactly.
        assert _rr(math.log(3)).estimator_params() == (0.75, 0.25)

    def test_keep_prob_bounds(self):
        for eps in (0.01, 0.5, 4.0, 10.0):
            p, q = _rr(eps).estimator_params()
            assert 0.5 < p < 1.0
            assert p + q == 1.0

    def test_epsilon_positive(self):
        with pytest.raises(ConfigurationError):
            _rr(0.0)


class TestDebias:
    def test_identity_at_truth(self):
        # Support counts equal to their expectation debias back to f.
        rr = _rr(1.0)
        t, c = rr.t_keep, rr.c_other
        n = 10 << rr.bits
        for tenths in (0, 3, 5, 10):
            ones = tenths * t + (10 - tenths) * c
            est = estimate_from_counts(rr, [n - ones, ones], n)
            assert est.frequencies[1] == pytest.approx(tenths / 10, abs=1e-12)

    def test_clipping(self):
        rr = _rr(2.0)
        np.testing.assert_array_equal(
            estimate_from_counts(rr, [100, 0], 100).normalized(), [1.0, 0.0]
        )
        np.testing.assert_array_equal(
            estimate_from_counts(rr, [0, 100], 100).normalized(), [0.0, 1.0]
        )

    def test_invalid_keep_prob(self):
        # A grid too coarse to put p above 1/2 at this ε is refused.
        with pytest.raises(ConfigurationError):
            _rr(1e-3, bits=4)


class TestMechanism:
    def test_flip_rate_matches_epsilon(self):
        rr = _rr(1.0, seed=0)
        noisy = rr.report(np.zeros(50000, dtype=np.int64))
        assert noisy.mean() == pytest.approx(rr.estimator_params()[1], abs=0.01)

    def test_estimator_consistent(self):
        rr = _rr(1.0, seed=1)
        bits = (np.random.default_rng(2).random(100000) < 0.3).astype(np.int64)
        est = estimate_frequencies(rr, rr.report(bits))
        assert est.frequencies[1] == pytest.approx(0.3, abs=0.02)

    def test_estimator_improves_with_n(self):
        rng = np.random.default_rng(3)
        errors = []
        for n in (200, 20000):
            rr = _rr(1.0, seed=4)
            trial_errs = []
            for _ in range(30):
                bits = (rng.random(n) < 0.4).astype(np.int64)
                est = estimate_frequencies(rr, rr.report(bits)).normalized()
                trial_errs.append(abs(est[1] - bits.mean()))
            errors.append(np.mean(trial_errs))
        assert errors[1] < errors[0]

    def test_rejects_non_binary(self):
        with pytest.raises(ConfigurationError):
            _rr(1.0).report(np.array([0, 1, 2]))

    def test_is_eps_ldp_exactly(self):
        # The realized 2x2 channel's worst log-ratio IS the advertised ε.
        rr = _rr(0.7)
        p, q = rr.estimator_params()
        assert rr.exact_epsilon() == math.log(rr.t_keep / rr.c_other)
        assert rr.exact_epsilon() == pytest.approx(math.log(p / q), abs=1e-12)
        assert rr.exact_epsilon() <= 0.7
