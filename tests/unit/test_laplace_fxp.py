"""Fixed-point Laplace RNG: exact PMF (eq. 11), bounded support, holes."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.rng import (
    CordicLn,
    ExhaustiveSource,
    FxpDatapath,
    FxpLaplaceRng,
    NumpySource,
)


def unsaturated_top(rng):
    """The rounded code of ``L = λ·Bu·ln2`` before saturation."""
    return math.floor(rng.max_magnitude_real / rng.config.delta + 0.5)


class TestConfig:
    def test_max_magnitude_formula(self, fig4_rng):
        # L = λ·Bu·ln2 (Section III-A2)
        assert fig4_rng.max_magnitude_real == pytest.approx(20 * 17 * math.log(2))

    def test_top_code(self, fig4_rng):
        assert fig4_rng.top_code == unsaturated_top(fig4_rng)

    def test_no_saturation_for_fig4(self, fig4_rng):
        assert unsaturated_top(fig4_rng) <= fig4_rng.config.max_code

    def test_saturation_detected(self):
        rng = FxpLaplaceRng(FxpDatapath(input_bits=17, output_bits=6, delta=10 / 32), 20.0)
        assert unsaturated_top(rng) > rng.config.max_code
        assert rng.top_code == rng.config.max_code

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FxpDatapath(input_bits=1, output_bits=12, delta=1.0)
        with pytest.raises(ConfigurationError):
            FxpDatapath(input_bits=12, output_bits=12, delta=-1.0)
        with pytest.raises(ConfigurationError):
            FxpLaplaceRng(FxpDatapath(input_bits=12, output_bits=12, delta=1.0), 0.0)


class TestExactPmf:
    def test_sums_to_one(self, fig4_pmf):
        assert fig4_pmf.total == pytest.approx(1.0, abs=1e-15)

    def test_symmetric(self, fig4_pmf):
        np.testing.assert_allclose(fig4_pmf.probs, fig4_pmf.probs[::-1])

    def test_bounded_support(self, fig4_rng, fig4_pmf):
        lo, hi = fig4_pmf.nonzero_bounds()
        assert hi == fig4_rng.top_code
        assert lo == -fig4_rng.top_code

    def test_tail_holes_exist(self, fig4_pmf):
        # Section III-A3: some bins inside the support window have zero
        # probability — the second cause of infinite privacy loss.
        assert int(np.sum(fig4_pmf.probs == 0.0)) > 0

    def test_no_holes_near_center(self, fig4_pmf):
        center = fig4_pmf.prob_array(-40, 40)
        assert np.all(center > 0)

    def test_analytic_matches_enumeration(self, fig4_rng):
        enum = fig4_rng.exact_pmf("enumerate")
        analytic = fig4_rng.exact_pmf("analytic")
        assert enum.total_variation(analytic) < 1e-12

    def test_probabilities_are_multiples_of_resolution(self, fig4_rng, fig4_pmf):
        # Paper: probabilities are multiples of 2^-(Bu+1).
        unit = 2.0 ** -(fig4_rng.config.input_bits + 1)
        ratios = fig4_pmf.probs / unit
        np.testing.assert_allclose(ratios, np.round(ratios), atol=1e-9)

    def test_matches_exhaustive_sampling_exactly(self):
        datapath = FxpDatapath(input_bits=10, output_bits=12, delta=0.25)
        rng = FxpLaplaceRng(datapath, 2.0, source=ExhaustiveSource(bit_block=1 << 10))
        # A double sweep covers every (code, sign) pair exactly once.
        codes = rng.sample_codes(2 * (1 << 10))
        counts = np.bincount(codes + rng.top_code, minlength=2 * rng.top_code + 1)
        pmf = rng.exact_pmf()
        np.testing.assert_allclose(counts / counts.sum(), pmf.probs, atol=1e-12)

    def test_std_close_to_ideal(self, fig4_pmf):
        assert math.sqrt(fig4_pmf.variance()) == pytest.approx(
            math.sqrt(2) * 20, rel=0.02
        )

    def test_saturating_config_accumulates_at_top(self):
        datapath = FxpDatapath(input_bits=12, output_bits=6, delta=0.25)
        pmf = FxpLaplaceRng(datapath, 2.0).exact_pmf()
        assert pmf.total == pytest.approx(1.0)
        assert pmf.max_k == datapath.max_code

    def test_analytic_handles_saturation(self):
        rng = FxpLaplaceRng(FxpDatapath(input_bits=12, output_bits=6, delta=0.25), 2.0)
        assert rng.exact_pmf("enumerate").total_variation(rng.exact_pmf("analytic")) < 1e-12

    def test_analytic_rejected_for_hw_log(self):
        datapath = FxpDatapath(input_bits=10, output_bits=12, delta=0.25)
        rng = FxpLaplaceRng(datapath, 2.0, log_backend=CordicLn(frac_bits=20, n_iterations=16))
        with pytest.raises(ConfigurationError):
            rng.exact_pmf("analytic")

    def test_unknown_method(self, fig4_rng):
        with pytest.raises(ConfigurationError):
            fig4_rng.exact_pmf("guess")


class TestSampling:
    def test_sample_matches_pmf_statistically(self, fig4_rng, fig4_pmf):
        s = FxpLaplaceRng(fig4_rng.config, 20.0, source=NumpySource(seed=0)).sample(100000)
        assert s.std() == pytest.approx(math.sqrt(fig4_pmf.variance()), rel=0.02)
        assert abs(s.mean()) < 0.5

    def test_samples_on_grid(self, fig4_rng):
        s = FxpLaplaceRng(fig4_rng.config, 20.0, source=NumpySource(seed=1)).sample(1000)
        k = s / fig4_rng.config.delta
        np.testing.assert_allclose(k, np.round(k), atol=1e-9)

    def test_samples_within_support(self, fig4_rng):
        s = FxpLaplaceRng(fig4_rng.config, 20.0, source=NumpySource(seed=2)).sample_codes(50000)
        assert np.abs(s).max() <= fig4_rng.top_code


class TestCordicBackend:
    def test_cordic_pmf_close_to_exact_log_pmf(self):
        datapath = FxpDatapath(input_bits=12, output_bits=12, delta=0.25)
        exact = FxpLaplaceRng(datapath, 2.0).exact_pmf()
        cordic = FxpLaplaceRng(
            datapath, 2.0, log_backend=CordicLn(frac_bits=24, n_iterations=24)
        ).exact_pmf()
        # A high-precision CORDIC log moves only edge codes between bins.
        assert exact.total_variation(cordic) < 5e-3


class TestIdealBins:
    def test_ideal_bin_probs_sum_to_one(self, fig4_rng):
        assert fig4_rng.ideal_bin_probs().total == pytest.approx(1.0)

    def test_center_agreement_with_fxp(self, fig4_rng, fig4_pmf):
        # Fig. 4(a): near the mode the FxP RNG matches the ideal closely.
        ideal = fig4_rng.ideal_bin_probs()
        center = slice(fig4_pmf.probs.size // 2 - 20, fig4_pmf.probs.size // 2 + 21)
        fxp_center = fig4_pmf.probs[center]
        ideal_center = ideal.prob_array(fig4_pmf.min_k, fig4_pmf.max_k)[center]
        np.testing.assert_allclose(fxp_center, ideal_center, rtol=0.02)
