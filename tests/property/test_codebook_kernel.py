"""Property tests: codebook kernel is bit-identical to the live datapath.

The codebook table is *defined* as the live `m -> k` map swept over the
full Bu-bit alphabet, so identity should hold for every generator, every
config, every logarithm back-end, and every uniform-code source —
including the resample guard's multi-round trajectories, where both
kernels must consume the source in exactly the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mechanisms import ResamplingMechanism, SensorSpec
from repro.rng import (
    CordicLn,
    ExhaustiveSource,
    FxpDatapath,
    FxpGaussianRng,
    FxpGeometricRng,
    FxpLaplaceRng,
    FxpStaircaseRng,
    IdealTwoSidedGeometric,
    LfsrSource,
    NumpySource,
    PiecewisePolyLn,
    SplitStreamSource,
    StaircaseParams,
    TauswortheSource,
    codebook_cache,
    gaussian_sigma,
    geometric_alpha,
)
from repro.runtime import ReleasePipeline

BACKENDS = {
    "exact": lambda: None,
    "cordic": lambda: CordicLn(),
    "ppoly": lambda: PiecewisePolyLn(),
}

SOURCES = {
    "tausworthe": lambda: TauswortheSource(seed=99),
    "numpy": lambda: NumpySource(seed=99),
    "exhaustive": lambda: ExhaustiveSource(),
    "lfsr": lambda: LfsrSource(seed=99),
}


#: Sensitivity of the non-Laplace generators below.
D = 8.0
KINDS = ("laplace", "staircase", "gaussian", "geometric")


def _generator(kind, datapath, epsilon, kernel="auto", source=None):
    """One of the four fixed-point generators at sensitivity ``D``."""
    if kind == "laplace":
        return FxpLaplaceRng(datapath, D / epsilon, source=source, kernel=kernel)
    if kind == "staircase":
        params = StaircaseParams(sensitivity=D, epsilon=epsilon)
        return FxpStaircaseRng(datapath, params, source=source, kernel=kernel)
    if kind == "gaussian":
        sigma = gaussian_sigma(D, epsilon, 1e-5)
        return FxpGaussianRng(datapath, sigma, source=source, kernel=kernel)
    ideal = IdealTwoSidedGeometric(geometric_alpha(D, epsilon, datapath.delta))
    return FxpGeometricRng(datapath, ideal, source=source, kernel=kernel)


def _rng_pair(cfg, backend_key, source_factory):
    """Same datapath/scale/backend/seed, one per kernel."""
    datapath, lam = cfg
    return tuple(
        FxpLaplaceRng(
            datapath,
            lam,
            source=source_factory(),
            log_backend=BACKENDS[backend_key](),
            kernel=kernel,
        )
        for kernel in ("codebook", "live")
    )


@st.composite
def fxp_configs(draw):
    """A Laplace ``(datapath, lam)`` pair."""
    input_bits = draw(st.integers(min_value=6, max_value=13))
    lam = draw(st.floats(min_value=0.5, max_value=50))
    delta = draw(st.floats(min_value=0.05, max_value=2.0))
    return FxpDatapath(input_bits=input_bits, output_bits=20, delta=delta), lam


@pytest.mark.parametrize("backend_key", sorted(BACKENDS))
@pytest.mark.parametrize("source_key", sorted(SOURCES))
@settings(max_examples=10, deadline=None)
@given(cfg=fxp_configs(), n=st.integers(1, 4096))
def test_codebook_bit_identical_to_live(backend_key, source_key, cfg, n):
    cb, live = _rng_pair(cfg, backend_key, SOURCES[source_key])
    assert cb.kernel == "codebook" and live.kernel == "live"
    np.testing.assert_array_equal(cb.sample_codes(n), live.sample_codes(n))


@pytest.mark.parametrize("backend_key", sorted(BACKENDS))
@settings(max_examples=10, deadline=None)
@given(cfg=fxp_configs())
def test_codebook_covers_full_alphabet(backend_key, cfg):
    """table[m-1] == live datapath for EVERY code m, not just sampled ones."""
    datapath, lam = cfg
    rng = FxpLaplaceRng(
        datapath, lam, log_backend=BACKENDS[backend_key](), kernel="codebook"
    )
    entry = rng._resolve_codebook()
    m = np.arange(1, 2**datapath.input_bits + 1, dtype=np.int64)
    np.testing.assert_array_equal(entry.gather(m), rng._codes_from_uniform(m))
    assert entry.table.shape == (2**datapath.input_bits,)


@settings(max_examples=10, deadline=None)
@given(cfg=fxp_configs(), n=st.integers(1, 2048), seed=st.integers(0, 2**31))
def test_codebook_split_stream_identical(cfg, n, seed):
    """Split code/sign streams exercise the draw-order contract directly."""
    cb, live = _rng_pair(cfg, "exact", lambda: SplitStreamSource(seed))
    np.testing.assert_array_equal(cb.sample_codes(n), live.sample_codes(n))


@pytest.mark.parametrize("backend_key", sorted(BACKENDS))
def test_resample_guard_trajectories_identical(backend_key):
    """Full mechanism releases — including redraw rounds — agree bitwise.

    The resample guard redraws out-of-range outputs, so the two kernels
    only stay aligned if every round consumes codes then sign bits in
    the same order.  SplitStreamSource keeps those streams independent,
    which would expose any reordering immediately.
    """
    sensor = SensorSpec(0.0, 10.0)
    x = np.random.default_rng(7).uniform(0.5, 9.5, 5000)
    outs = {}
    for kernel in ("codebook", "live"):
        mech = ResamplingMechanism(
            sensor,
            epsilon=0.5,
            input_bits=12,
            log_backend=BACKENDS[backend_key](),
            source=SplitStreamSource(42),
            kernel=kernel,
            pipeline=ReleasePipeline(),
        )
        assert mech.rng.kernel == kernel
        outs[kernel] = mech.release(x)
    np.testing.assert_array_equal(
        outs["codebook"].values, outs["live"].values
    )
    assert outs["codebook"].event.draws == outs["live"].event.draws
    assert (
        outs["codebook"].event.resample_rounds
        == outs["live"].event.resample_rounds
    )
    assert outs["codebook"].event.kernel == "codebook"
    assert outs["live"].event.kernel == "live"


@st.composite
def generator_cases(draw):
    """``(kind, datapath, epsilon)`` for any of the four generators."""
    kind = draw(st.sampled_from(KINDS))
    input_bits = draw(st.integers(min_value=6, max_value=13))
    frac_bits = draw(st.integers(min_value=3, max_value=7))
    epsilon = draw(st.floats(min_value=0.25, max_value=2.0))
    datapath = FxpDatapath(input_bits=input_bits, output_bits=20, delta=D / 2**frac_bits)
    return kind, datapath, epsilon


@settings(max_examples=20, deadline=None)
@given(case=generator_cases())
def test_codebook_pmf_matches_live_enumeration(case):
    """Shared-cache PMF == per-instance enumeration (== eq. 11 for Laplace)."""
    cb = _generator(*case, kernel="codebook")
    live = _generator(*case, kernel="live")
    cb_pmf, live_pmf = cb.exact_pmf(), live.exact_pmf()
    assert cb_pmf.min_k == live_pmf.min_k
    np.testing.assert_array_equal(cb_pmf.probs, live_pmf.probs)
    if case[0] == "laplace":
        assert cb_pmf.total_variation(cb.exact_pmf("analytic")) < 1e-12


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("input_bits", [12, 13])
def test_auto_kernel_tables_every_generator(kind, input_bits):
    """Under `auto` every generator samples from a table sized by its own
    top code, and the stream equals the live datapath's."""
    datapath = FxpDatapath(input_bits=input_bits, output_bits=20, delta=D / 64)
    auto = _generator(kind, datapath, 0.5, source=SplitStreamSource(3))
    live = _generator(kind, datapath, 0.5, kernel="live", source=SplitStreamSource(3))
    assert auto.kernel == "codebook" and live.kernel == "live"
    assert auto._resolve_codebook().top_code == auto.top_code
    codes = np.arange(-50, 50, dtype=np.int64)
    np.testing.assert_array_equal(auto.sample_codes(5000), live.sample_codes(5000))
    np.testing.assert_array_equal(auto.sample_codes_add(codes), live.sample_codes_add(codes))


def test_auto_kernel_budget_fallback_still_bit_identical():
    """`auto` over budget degrades to live — outputs unchanged either way."""
    cache = codebook_cache()
    datapath = FxpDatapath(input_bits=10, output_bits=20, delta=0.125)
    auto = FxpLaplaceRng(datapath, 8.0, source=NumpySource(seed=5), kernel="auto")
    live = FxpLaplaceRng(datapath, 8.0, source=NumpySource(seed=5), kernel="live")
    planned = cache.planned_bytes(auto)
    try:
        from repro.rng import configure_codebooks

        configure_codebooks(table_budget_bytes=planned - 1)
        assert auto.kernel == "live"  # fell back, silently
        np.testing.assert_array_equal(
            auto.sample_codes(500), live.sample_codes(500)
        )
    finally:
        from repro.rng.codebook import DEFAULT_TABLE_BUDGET_BYTES

        configure_codebooks(table_budget_bytes=DEFAULT_TABLE_BUDGET_BYTES)
