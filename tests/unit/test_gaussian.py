"""Fixed-point Gaussian noise and the probit approximation."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from repro.errors import ConfigurationError
from repro.rng import FxpDatapath, FxpGaussianRng, gaussian_sigma, probit

D, EPS, DELTA_DP = 8.0, 0.5, 1e-5
SIGMA = gaussian_sigma(D, EPS, DELTA_DP)
CFG = FxpDatapath(input_bits=12, output_bits=20, delta=D / 16)


class TestSigmaCalibration:
    def test_formula(self):
        assert SIGMA == pytest.approx(
            D * math.sqrt(2 * math.log(1.25 / DELTA_DP)) / EPS
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            gaussian_sigma(0.0, 1.0, 1e-5)
        with pytest.raises(ConfigurationError):
            gaussian_sigma(1.0, 1.0, 2.0)


class TestProbit:
    def test_matches_scipy(self):
        p = np.linspace(1e-8, 1 - 1e-8, 50001)
        assert np.max(np.abs(probit(p) - norm.ppf(p))) < 2e-8

    def test_symmetry(self):
        p = np.array([0.01, 0.2, 0.4])
        np.testing.assert_allclose(probit(p), -probit(1 - p), atol=1e-9)

    def test_median_is_zero(self):
        assert probit(np.asarray([0.5]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ConfigurationError):
            probit(np.asarray([0.0]))
        with pytest.raises(ConfigurationError):
            probit(np.asarray([1.0]))


class TestFxpGaussian:
    @pytest.fixture(scope="class")
    def rng(self):
        return FxpGaussianRng(CFG, sigma=SIGMA)

    def test_pmf_valid_and_symmetric(self, rng):
        pmf = rng.exact_pmf()
        assert pmf.total == pytest.approx(1.0)
        np.testing.assert_allclose(pmf.probs, pmf.probs[::-1])

    def test_std_matches_sigma(self, rng):
        pmf = rng.exact_pmf()
        assert math.sqrt(pmf.variance()) == pytest.approx(SIGMA, rel=0.01)

    def test_bounded_support(self, rng):
        # max magnitude ~ sigma * probit(1 - 2^-(Bu+2)) — a few sigma.
        pmf = rng.exact_pmf()
        lo, hi = pmf.nonzero_bounds()
        assert hi * CFG.delta < 6 * SIGMA
        assert hi <= rng.top_code

    def test_gaussian_tail_lighter_than_laplace(self, rng):
        # At 3 sigma the Gaussian tail is much lighter than a Laplace of
        # the same std would be.
        pmf = rng.exact_pmf()
        k3 = int(3 * SIGMA / CFG.delta)
        tail = pmf.tail_ge(k3)
        lap_tail = 0.5 * math.exp(-3 * math.sqrt(2))  # Laplace, same std
        assert tail < lap_tail

    def test_sampling_consistent(self, rng):
        s = rng.sample(60000)
        assert s.std() == pytest.approx(SIGMA, rel=0.03)
        assert abs(s.mean()) < SIGMA / 20

    def test_sigma_validation(self):
        with pytest.raises(ConfigurationError):
            FxpGaussianRng(CFG, sigma=0.0)
