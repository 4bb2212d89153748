"""Two-sided geometric noise: the ideal is exactly LDP, the Bu-bit
realization is not, and the guards fix it — the sharpened §III-A4 story."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mechanisms import SensorSpec, make_mechanism
from repro.rng import FxpDatapath
from repro.rng.geometric import (
    FxpGeometricRng,
    IdealTwoSidedGeometric,
    geometric_alpha,
)

D, EPS = 8.0, 0.5
DELTA = D / 64
ALPHA = geometric_alpha(D, EPS, DELTA)
CFG = FxpDatapath(input_bits=12, output_bits=20, delta=DELTA)


@pytest.fixture(scope="module")
def ideal():
    return IdealTwoSidedGeometric(ALPHA)


@pytest.fixture(scope="module")
def rng(ideal):
    return FxpGeometricRng(CFG, ideal)


class TestIdealDistribution:
    def test_alpha_formula(self):
        assert ALPHA == pytest.approx(math.exp(-EPS * DELTA / D))

    def test_pmf_normalizes(self, ideal):
        ks = np.arange(-4000, 4001)
        assert ideal.pmf(ks).sum() == pytest.approx(1.0, abs=1e-9)

    def test_tail_formula(self, ideal):
        ks = np.arange(-20000, 20001)
        p = ideal.pmf(ks)
        j = 37
        assert ideal.magnitude_tail(j) == pytest.approx(
            p[np.abs(ks) >= j].sum(), abs=1e-9
        )

    def test_ideal_is_exactly_eps_ldp(self, ideal):
        """The whole point of discrete noise: exact ε with no guards."""
        shift = int(round(D / DELTA))
        measured = ideal.exact_ldp_epsilon(shift)
        assert measured == pytest.approx(EPS, rel=1e-9)

    def test_inverse_cdf_roundtrip(self, ideal):
        for j in (0, 1, 5, 40):
            # Middle of rung j maps to j; just past the rung edge maps to j+1.
            u_mid = 1.0 - 0.5 * (
                ideal.magnitude_tail(j) + ideal.magnitude_tail(j + 1)
            )
            assert float(ideal.inverse_magnitude_cdf(np.asarray([u_mid]))[0]) == j
            u_past = 1.0 - ideal.magnitude_tail(j + 1) + 1e-12
            assert float(ideal.inverse_magnitude_cdf(np.asarray([u_past]))[0]) == j + 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            IdealTwoSidedGeometric(1.0)
        with pytest.raises(ConfigurationError):
            geometric_alpha(0.0, 1.0, 0.1)


class TestFxpRealization:
    def test_pmf_valid_and_symmetric(self, rng):
        pmf = rng.exact_pmf()
        assert pmf.total == pytest.approx(1.0)
        np.testing.assert_allclose(pmf.probs, pmf.probs[::-1], atol=1e-15)

    def test_support_bounded_by_entropy(self, rng):
        # Deepest reachable rung ≈ (Bu+1)·ln2 / |ln α|.
        lo, hi = rng.exact_pmf().nonzero_bounds()
        expected = (CFG.input_bits + 1) * math.log(2) / abs(math.log(ALPHA))
        assert hi == pytest.approx(expected, rel=0.05)
        assert hi <= rng.top_code

    def test_matches_ideal_in_bulk(self, rng):
        # Per-rung mass ≈ 16 URNG codes at Bu=12, so quantization puts a
        # few percent of TV between the realization and the ideal.
        pmf = rng.exact_pmf()
        ideal_w = rng.ideal_pmf_window()
        assert pmf.total_variation(ideal_w) < 0.05

    def test_more_bits_tighter_match(self, ideal):
        tvs = []
        for bu in (10, 14):
            cfg = FxpDatapath(input_bits=bu, output_bits=20, delta=DELTA)
            r = FxpGeometricRng(cfg, ideal)
            tvs.append(r.exact_pmf().total_variation(r.ideal_pmf_window()))
        assert tvs[1] < tvs[0]

    def test_sampling_consistent(self, rng):
        pmf = rng.exact_pmf()
        s = rng.sample_codes(60000)
        assert s.std() == pytest.approx(
            math.sqrt(pmf.variance()) / CFG.delta, rel=0.03
        )


class TestPrivacyStory:
    def test_naive_fxp_geometric_not_ldp(self, rng):
        """Discreteness does not save a finite-entropy implementation."""
        mech = make_mechanism("baseline", SensorSpec(0.0, D), EPS, noise_rng=rng)
        report = mech.ldp_report(epsilon_target=1e9)
        assert not report.is_finite

    def test_guarded_fxp_geometric_certified(self, rng):
        mech = make_mechanism("thresholding", SensorSpec(0.0, D), EPS, noise_rng=rng)
        report = mech.ldp_report()
        assert report.is_finite and report.satisfied

    def test_guarded_loss_can_beat_laplace_guard(self, rng):
        """Geometric decay has no rounding wobble, so the guarded loss sits
        right at the pointwise ratio bound."""
        mech = make_mechanism("thresholding", SensorSpec(0.0, D), EPS, noise_rng=rng)
        assert mech.ldp_report().worst_loss <= 2 * EPS + 1e-9
