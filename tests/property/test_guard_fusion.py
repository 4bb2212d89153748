"""Property tests: the fused guard passes are bit-identical to references.

The pipeline fuses three hot elementwise passes (ROADMAP fast-path
note): the threshold guard's add+clip runs in place, the resample
guard's out-of-window mask is a single unsigned range check, and the
categorical ``modulus`` combine reduces in place.  Fusion must never
change a single released code — these tests pit each fused pass against
a straightforward scalar/two-pass reference on the *same* draw stream
and require exact equality, including the per-sample resample round
counts (the Fig. 12 timing observable).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ResampleExhaustedError
from repro.rng import FxpDatapath, FxpLaplaceRng
from repro.rng.staircase import FxpStaircaseRng, StaircaseParams
from repro.rng.urng import NumpySource
from repro.runtime import ReleasePipeline, ReleaseRequest


def _request(codes, draw, **kwargs):
    return ReleaseRequest(
        mechanism="fusion-test",
        epsilon=1.0,
        claimed_loss=1.0,
        codes=np.asarray(codes),
        draw=draw,
        **kwargs,
    )


def _seeded_draw(seed, width):
    """A deterministic draw(n) stream: integer codes in [-width, width]."""
    gen = np.random.Generator(np.random.PCG64(seed))

    def draw(n):
        return gen.integers(-width, width + 1, size=n)

    return draw


# ---------------------------------------------------------------------
# _clamp: in-place integer clip == out-of-place reference
# ---------------------------------------------------------------------
@settings(max_examples=100)
@given(
    codes=st.lists(st.integers(min_value=-500, max_value=500), min_size=1, max_size=64),
    lo=st.integers(min_value=-200, max_value=0),
    hi=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_threshold_guard_matches_scalar_clip(codes, lo, hi, seed):
    codes = np.asarray(codes, dtype=np.int64)
    width = 50
    pipe = ReleasePipeline(sinks=[])
    out = pipe.release(
        _request(codes, _seeded_draw(seed, width), guard="threshold", window=(lo, hi))
    )
    # Reference: same stream, plain per-element min/max.
    ref_draw = _seeded_draw(seed, width)
    noise = ref_draw(codes.size)
    expected = np.array(
        [min(max(int(c) + int(e), lo), hi) for c, e in zip(codes, noise)],
        dtype=np.int64,
    )
    np.testing.assert_array_equal(out.codes, expected)


def test_threshold_guard_fractional_window_still_upcasts():
    # A fractional window over integer codes cannot clip in place; the
    # fused path must fall back to the upcasting clip, not raise.
    codes = np.arange(-5, 6, dtype=np.int64)
    pipe = ReleasePipeline(sinks=[])
    out = pipe.release(
        _request(
            codes,
            lambda n: np.zeros(n, dtype=np.int64),
            guard="threshold",
            window=(-2.5, 2.5),
        )
    )
    np.testing.assert_array_equal(out.codes, np.clip(codes, -2.5, 2.5))
    assert out.codes.dtype.kind == "f"


# ---------------------------------------------------------------------
# resample: fused unsigned range check == two-pass comparisons,
# including the draw consumption order and per-sample round counts
# ---------------------------------------------------------------------
def _reference_resample(codes, draw, lo, hi, max_rounds):
    """Scalar reference: same batch-shaped consumption order."""
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.size
    k_y = codes + draw(n)
    rounds = np.ones(n, dtype=np.int64)
    pending = [i for i in range(n) if k_y[i] < lo or k_y[i] > hi]
    for _ in range(max_rounds - 1):
        if not pending:
            break
        redraw = draw(len(pending))
        still = []
        for j, i in enumerate(pending):
            k_y[i] = codes[i] + redraw[j]
            rounds[i] += 1
            if k_y[i] < lo or k_y[i] > hi:
                still.append(i)
        pending = still
    if pending:
        raise ResampleExhaustedError("reference exhausted")
    return k_y, rounds


@settings(max_examples=60, deadline=None)
@given(
    codes=st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=48),
    lo=st.integers(min_value=-60, max_value=-10),
    hi=st.integers(min_value=10, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_resample_guard_matches_scalar_reference(codes, lo, hi, seed):
    codes = np.asarray(codes, dtype=np.int64)
    width = 40
    pipe = ReleasePipeline(sinks=[])
    out = pipe.release(
        _request(codes, _seeded_draw(seed, width), guard="resample", window=(lo, hi))
    )
    ref_codes, ref_rounds = _reference_resample(
        codes, _seeded_draw(seed, width), lo, hi, max_rounds=64
    )
    np.testing.assert_array_equal(out.codes, ref_codes)
    np.testing.assert_array_equal(out.rounds, ref_rounds)


def test_resample_negative_codes_unsigned_trick():
    # Negative out-of-window values must register as pending: the
    # unsigned wrap maps k - lo < 0 to a huge value, never to "inside".
    codes = np.array([-100, 0, 100], dtype=np.int64)
    draws = iter(
        [np.array([0, 0, 0]), np.array([150]), np.array([120]), np.array([90])]
    )
    pipe = ReleasePipeline(sinks=[])
    out = pipe.release(
        _request(codes, lambda n: next(draws), guard="resample", window=(-10, 110))
    )
    # -100 redraws (3 rounds: -100+150=50 in window after first redraw?
    # No: round 1 gives -100, out; redraw +150 -> 50, in).  0 and 100
    # stay.  Rounds: [2, 1, 1].
    np.testing.assert_array_equal(out.codes, np.array([50, 0, 100]))
    np.testing.assert_array_equal(out.rounds, np.array([2, 1, 1]))


def test_resample_exhaustion_still_raises():
    pipe = ReleasePipeline(sinks=[])
    with pytest.raises(ResampleExhaustedError):
        pipe.release(
            _request(
                np.array([1000], dtype=np.int64),
                lambda n: np.zeros(n, dtype=np.int64),
                guard="resample",
                window=(0, 10),
                max_rounds=4,
            )
        )


# ---------------------------------------------------------------------
# sample_codes_add: fused draw+add == codes + sample_codes(n), same stream
# ---------------------------------------------------------------------
_FUSION_CONFIG = FxpDatapath(input_bits=10, output_bits=12, delta=10.0 / 128.0)


def _fusion_rng(kind, seed):
    """A seeded generator: Laplace on either kernel, or staircase (another
    inversion generator on the same base datapath and codebook)."""
    source = NumpySource(seed)
    if kind == "staircase":
        params = StaircaseParams(sensitivity=10.0, epsilon=1.0)
        return FxpStaircaseRng(_FUSION_CONFIG, params, source=source)
    return FxpLaplaceRng(_FUSION_CONFIG, 10.0, source=source, kernel=kind)


@settings(max_examples=60, deadline=None)
@given(
    codes=st.lists(
        st.integers(min_value=-2000, max_value=2000), min_size=1, max_size=128
    ),
    seed=st.integers(min_value=0, max_value=2**31),
    kind=st.sampled_from(["codebook", "live", "staircase"]),
)
def test_sample_codes_add_matches_unfused(codes, seed, kind):
    codes = np.asarray(codes, dtype=np.int64)
    fused = _fusion_rng(kind, seed).sample_codes_add(codes)
    expected = codes + _fusion_rng(kind, seed).sample_codes(codes.size)
    np.testing.assert_array_equal(fused, expected)
    assert fused.dtype == np.int64


def test_sample_codes_add_source_consumption_matches():
    # After a fused call and an unfused call on seed-identical sources,
    # the NEXT draws must also agree: the fused path consumed exactly n
    # uniform codes then n sign bits, nothing more or less.
    for kind in ("live", "staircase"):
        a = _fusion_rng(kind, 7)
        b = _fusion_rng(kind, 7)
        codes = np.arange(-8, 9, dtype=np.int64)
        a.sample_codes_add(codes)
        codes + b.sample_codes(codes.size)
        np.testing.assert_array_equal(a.sample_codes(32), b.sample_codes(32))


def test_sample_codes_add_does_not_mutate_input():
    rng = FxpLaplaceRng(_FUSION_CONFIG, 10.0, source=NumpySource(3))
    codes = np.arange(16, dtype=np.int64)
    keep = codes.copy()
    rng.sample_codes_add(codes)
    np.testing.assert_array_equal(codes, keep)


@settings(max_examples=40, deadline=None)
@given(
    codes=st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=48),
    seed=st.integers(min_value=0, max_value=2**31),
    guard=st.sampled_from(["none", "threshold", "resample"]),
)
def test_pipeline_draw_add_matches_draw_only(codes, seed, guard):
    # The released codes through every guard must be identical whether
    # the request carries the fused draw_add or only the plain draw.
    codes = np.asarray(codes, dtype=np.int64)
    window = (-1500, 1500) if guard != "none" else None
    fused_rng = FxpLaplaceRng(_FUSION_CONFIG, 10.0, source=NumpySource(seed))
    plain_rng = FxpLaplaceRng(_FUSION_CONFIG, 10.0, source=NumpySource(seed))
    pipe = ReleasePipeline(sinks=[])
    fused_out = pipe.release(
        _request(
            codes,
            fused_rng.sample_codes,
            draw_add=fused_rng.sample_codes_add,
            guard=guard,
            window=window,
        )
    )
    plain_out = pipe.release(
        _request(codes, plain_rng.sample_codes, guard=guard, window=window)
    )
    np.testing.assert_array_equal(fused_out.codes, plain_out.codes)
    if guard == "resample":
        np.testing.assert_array_equal(fused_out.rounds, plain_out.rounds)


# ---------------------------------------------------------------------
# modulus combine: in-place mod == scalar reference
# ---------------------------------------------------------------------
@settings(max_examples=60)
@given(
    codes=st.lists(st.integers(min_value=0, max_value=19), min_size=1, max_size=64),
    modulus=st.integers(min_value=2, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_modulus_combine_matches_scalar(codes, modulus, seed):
    codes = np.asarray(codes, dtype=np.int64) % modulus
    gen = np.random.Generator(np.random.PCG64(seed))
    offsets = gen.integers(0, modulus, size=codes.size)
    pipe = ReleasePipeline(sinks=[])
    out = pipe.release(
        _request(codes, lambda n: offsets[:n].copy(), guard="none", modulus=modulus)
    )
    expected = np.array(
        [(int(c) + int(o)) % modulus for c, o in zip(codes, offsets)], dtype=np.int64
    )
    np.testing.assert_array_equal(out.codes, expected)
