"""Staircase noise: continuous math and fixed-point realization."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import (
    FxpDatapath,
    FxpStaircaseRng,
    StaircaseParams,
    optimal_gamma,
)

D, EPS = 8.0, 0.5
CFG = FxpDatapath(input_bits=12, output_bits=18, delta=D / 64)


@pytest.fixture(scope="module")
def params():
    return StaircaseParams(sensitivity=D, epsilon=EPS)


@pytest.fixture(scope="module")
def rng(params):
    return FxpStaircaseRng(CFG, params)


class TestParams:
    def test_optimal_gamma_formula(self):
        assert optimal_gamma(1.0) == pytest.approx(1 / (1 + math.exp(0.5)))

    def test_gamma_defaults_to_optimal(self, params):
        assert params.gamma == pytest.approx(optimal_gamma(EPS))

    def test_density_scale_normalizes(self, params):
        # integral = 2*d*a*(gamma + b*(1-gamma)) / (1-b) = 1
        b, g = params.b, params.gamma
        integral = 2 * D * params.density_scale * (g + b * (1 - g)) / (1 - b)
        assert integral == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StaircaseParams(sensitivity=0.0, epsilon=1.0)
        with pytest.raises(ConfigurationError):
            StaircaseParams(sensitivity=1.0, epsilon=1.0, gamma=1.5)


class TestInverseCdf:
    def test_monotone(self, params):
        u = np.linspace(0.001, 0.999, 400)
        m = params.inverse_half_cdf(u)
        assert np.all(np.diff(m) >= -1e-12)

    def test_small_u_in_first_rung(self, params):
        m = params.inverse_half_cdf(np.asarray([1e-6]))
        assert 0 <= m[0] < D

    def test_rung_boundaries(self, params):
        # u = 1 - b^k lands exactly at the start of rung k.
        b = params.b
        for k in (1, 2, 3):
            u = 1.0 - b**k
            m = float(params.inverse_half_cdf(np.asarray([u + 1e-12]))[0])
            assert m == pytest.approx(k * D, abs=1e-3)

    def test_roundtrip_against_mass(self, params):
        # Pr[M <= inverse(u)] recovered by numeric integration of the pdf.
        u = 0.9
        m = float(params.inverse_half_cdf(np.asarray([u]))[0])
        # numeric CDF of the magnitude density
        xs = np.linspace(0, m, 200001)
        b, g, a = params.b, params.gamma, params.density_scale
        k = np.floor(xs / D)
        frac = xs / D - k
        dens = 2 * a * np.where(frac < g, b**k, b ** (k + 1))
        mass = float(np.trapezoid(dens, xs))
        assert mass == pytest.approx(u, abs=1e-3)

    def test_domain_validation(self, params):
        with pytest.raises(ConfigurationError):
            params.inverse_half_cdf(np.asarray([0.0]))


class TestFxpRealization:
    def test_pmf_valid(self, rng):
        pmf = rng.exact_pmf()
        assert pmf.total == pytest.approx(1.0)
        np.testing.assert_allclose(pmf.probs, pmf.probs[::-1])

    def test_bounded_support_with_holes(self, rng):
        pmf = rng.exact_pmf()
        lo, hi = pmf.nonzero_bounds()
        assert hi <= rng.top_code
        assert int(np.sum(pmf.probs == 0)) > 0  # the same pathology

    def test_staircase_shape_visible(self, rng, params):
        # Probability drops by ~e^{-eps} from one rung's inner piece to
        # the next: compare mass at the middle of rung 0 vs rung 1.
        pmf = rng.exact_pmf()
        d_codes = int(round(D / CFG.delta))
        g_codes = int(params.gamma * d_codes)
        p0 = pmf.prob_at(g_codes // 2)
        p1 = pmf.prob_at(d_codes + g_codes // 2)
        assert p1 / p0 == pytest.approx(math.exp(-EPS), rel=0.1)

    def test_sampling_matches_pmf_std(self, rng):
        pmf = rng.exact_pmf()
        s = rng.sample(60000)
        assert s.std() == pytest.approx(math.sqrt(pmf.variance()), rel=0.03)

    def test_l1_cost_beats_laplace_slightly(self, rng):
        # Staircase is l1-optimal; its mean |noise| must not exceed the
        # Laplace mean |noise| = lam at the same eps.
        pmf = rng.exact_pmf()
        mean_abs = float(
            np.dot(np.abs(pmf.support_values()), pmf.probs)
        )
        assert mean_abs <= D / EPS + CFG.delta
