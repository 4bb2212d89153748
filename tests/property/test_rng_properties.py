"""Property-based tests: RNG substrate invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import (
    CordicLn,
    FxpDatapath,
    FxpLaplaceRng,
    Taus88,
    VectorTaus88,
)


@settings(max_examples=25)
@given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(1, 50))
def test_taus88_scalar_vector_agree(seed, n):
    scalar = Taus88(seed=seed)
    vec = VectorTaus88(seed=seed, n_lanes=4)
    expected = [scalar.next_u32() for _ in range(n)]
    got = [int(vec._step()[0]) for _ in range(n)]
    assert got == expected


@settings(max_examples=25)
@given(
    m=st.integers(min_value=1, max_value=1 << 14),
    frac_bits=st.integers(min_value=16, max_value=28),
)
def test_cordic_ln_accuracy_scales_with_frac_bits(m, frac_bits):
    unit = CordicLn(frac_bits=frac_bits, n_iterations=24)
    got = unit.ln_uniform(m, input_bits=14)
    # Truncating shifts lose ~1 LSB per iteration; 24 iterations plus the
    # range-reduction constant bound the error by a few hundred LSBs.
    tolerance = 200 * 2.0**-frac_bits + 1e-6
    assert abs(got - math.log(m / 2.0**14)) < tolerance


@st.composite
def laplace_rngs(draw):
    input_bits = draw(st.integers(min_value=6, max_value=14))
    lam = draw(st.floats(min_value=0.5, max_value=50))
    delta = draw(st.floats(min_value=0.05, max_value=2.0))
    datapath = FxpDatapath(input_bits=input_bits, output_bits=20, delta=delta)
    return FxpLaplaceRng(datapath, lam)


@settings(max_examples=30, deadline=None)
@given(rng=laplace_rngs())
def test_exact_pmf_is_valid_distribution(rng):
    pmf = rng.exact_pmf()
    assert abs(pmf.total - 1.0) < 1e-12
    assert np.all(pmf.probs >= 0)


@settings(max_examples=30, deadline=None)
@given(rng=laplace_rngs())
def test_exact_pmf_symmetric(rng):
    pmf = rng.exact_pmf()
    np.testing.assert_allclose(pmf.probs, pmf.probs[::-1], atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(rng=laplace_rngs())
def test_analytic_counts_match_enumeration(rng):
    assert rng.exact_pmf("enumerate").total_variation(rng.exact_pmf("analytic")) < 1e-12


@settings(max_examples=30, deadline=None)
@given(rng=laplace_rngs())
def test_support_bounded_by_theory(rng):
    lo, hi = rng.exact_pmf().nonzero_bounds()
    assert hi <= rng.top_code
    assert lo >= -rng.top_code


@settings(max_examples=15, deadline=None)
@given(rng=laplace_rngs(), n=st.integers(min_value=1, max_value=500))
def test_samples_always_within_support(rng, n):
    codes = rng.sample_codes(n)
    assert np.abs(codes).max() <= rng.top_code


# ---------------------------------------------------------------------------
# Alternative noise generators (staircase / Gaussian) share the inversion
# datapath invariants.
# ---------------------------------------------------------------------------
from repro.rng import FxpGaussianRng, FxpStaircaseRng, StaircaseParams


@st.composite
def staircase_rngs(draw):
    d = draw(st.floats(min_value=1.0, max_value=20.0))
    eps = draw(st.floats(min_value=0.25, max_value=2.0))
    input_bits = draw(st.integers(min_value=8, max_value=12))
    datapath = FxpDatapath(input_bits=input_bits, output_bits=20, delta=d / 32)
    return FxpStaircaseRng(datapath, StaircaseParams(sensitivity=d, epsilon=eps))


@settings(max_examples=20, deadline=None)
@given(rng=staircase_rngs())
def test_staircase_pmf_valid_and_symmetric(rng):
    pmf = rng.exact_pmf()
    assert abs(pmf.total - 1.0) < 1e-12
    np.testing.assert_allclose(pmf.probs, pmf.probs[::-1], atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(rng=staircase_rngs(), n=st.integers(min_value=1, max_value=300))
def test_staircase_samples_within_support(rng, n):
    codes = rng.sample_codes(n)
    lo, hi = rng.exact_pmf().nonzero_bounds()
    assert codes.min() >= lo and codes.max() <= hi


@st.composite
def gaussian_rngs(draw):
    sigma = draw(st.floats(min_value=0.5, max_value=30.0))
    input_bits = draw(st.integers(min_value=8, max_value=12))
    datapath = FxpDatapath(input_bits=input_bits, output_bits=20, delta=sigma / 8)
    return FxpGaussianRng(datapath, sigma=sigma)


@settings(max_examples=20, deadline=None)
@given(rng=gaussian_rngs())
def test_gaussian_pmf_valid_and_std_close(rng):
    pmf = rng.exact_pmf()
    assert abs(pmf.total - 1.0) < 1e-12
    assert math.sqrt(pmf.variance()) == pytest.approx(rng.sigma, rel=0.1)


@settings(max_examples=20, deadline=None)
@given(rng=gaussian_rngs())
def test_gaussian_support_bounded_by_top_code(rng):
    lo, hi = rng.exact_pmf().nonzero_bounds()
    assert hi <= rng.top_code and lo >= -rng.top_code
