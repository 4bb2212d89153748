"""Fused guard-pass bench — signed gather + one-pass masks vs unfused.

The single-core fast path fuses the per-release elementwise chain on the
codebook-gather path: the sign multiply folds into a doubled ``[+k, -k]``
gather (``CodebookEntry.gather_signed_add``), the input-code add runs in
place on the gather output, the resample accept test is one unsigned
range check, and the threshold clamp clips in place.  This bench times
those passes against the *reconstructed unfused vectorized reference* —
the pre-fusion chain ``gather → 2b → 1-… → sign·k → +codes`` plus the
two-pass window compare and the out-of-place clip — on the CORDIC
resampling arm configuration, asserts bit-identity, and requires the
fused passes to clear the ≥1.3× floor.

URNG codes and sign bits are pre-drawn once and replayed into both arms:
PCG64 generation is identical work on both sides, and excluding it is
what makes this a microbench of the *passes* rather than of numpy's
bit generator.  The end-to-end resampling release (generation included)
is reported alongside for context, with no floor — at small ``Bu`` the
bit generator is a constant ~40% of the release and dilutes any pass
fusion.  Both arms are timed by the method in ``_kernel_results.py``
(alternating repeats, median and quartiles, host block) and the floor
is checked against the median speedup.  Results land in
``BENCH_kernels.json`` under ``fused_guards``.
"""

import time

import numpy as np

from repro.mechanisms import ResamplingMechanism, SensorSpec
from repro.rng import CordicLn
from repro.runtime import ReleasePipeline

from _kernel_results import REPEATS, merge_results, speedup_row, time_pairs
from bench_parallel_fleet import _summary
from conftest import record_experiment

SENSOR = SensorSpec(0.0, 10.0)
EPSILON = 0.5
INPUT_BITS = 14
N_SAMPLES = 1_000_000
MIN_SPEEDUP = 1.3


def bench_fused_guard_passes(benchmark):
    """Fused resample-round + clamp passes must be ≥1.3× the unfused chain."""
    mech = ResamplingMechanism(
        SENSOR,
        EPSILON,
        input_bits=INPUT_BITS,
        log_backend=CordicLn(),
        kernel="codebook",
        pipeline=ReleasePipeline(),
    )
    entry = mech.rng._resolve_codebook()
    assert entry is not None, "CORDIC table must fit the budget at Bu=14"
    lo, hi = mech.window
    span = np.uint64(hi - lo)

    gen = np.random.default_rng(20180604)
    codes = gen.integers(mech.k_m, mech.k_M + 1, size=N_SAMPLES)
    # Pre-drawn URNG stream, replayed into both arms (see module note).
    m = gen.integers(1, (1 << INPUT_BITS) + 1, size=N_SAMPLES)
    bits = gen.integers(0, 2, size=N_SAMPLES)
    table = entry.table

    def unfused_round():
        # Pre-fusion reference: separate gather, sign construction,
        # add, two-pass window compare, out-of-place clip.
        k = table[m - 1]
        sign = 1 - 2 * bits
        k_y = codes + sign * k
        mask = (k_y < lo) | (k_y > hi)
        clamped = np.clip(k_y, lo, hi)
        return mask, clamped

    def fused_round():
        # What the pipeline runs: signed gather with the add folded in,
        # free-view unsigned range check, in-place clip (the guard owns
        # the buffer, so mutating it is the production semantics).
        k_y = entry.gather_signed_add(m, bits, codes)
        mask = (k_y - lo).view(np.uint64) > span
        np.clip(k_y, lo, hi, out=k_y)
        return mask, k_y

    def run():
        ref = unfused_round()  # warm (gather table, numpy dispatch)
        out = fused_round()  # warm (builds the signed table once)
        return ref, out, time_pairs(fused_round, unfused_round)

    ref, out, (t_fused, t_unfused) = benchmark.pedantic(run, rounds=1, iterations=1)
    for got, want in zip(out, ref):
        np.testing.assert_array_equal(got, want)
    row = speedup_row(t_fused, t_unfused, "fused", "unfused", scale=1e3, unit="ms")
    speedup = row["speedup"]["median"]

    # Context: the full resampling release, PCG generation included.
    truth = np.random.default_rng(11).uniform(1.0, 9.0, N_SAMPLES)
    mech.release(truth[:1000])  # warm
    release_ms = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        mech.release(truth)
        release_ms.append((time.perf_counter() - t0) * 1e3)
    t_release = _summary(release_ms)

    merge_results(
        "fused_guards",
        dict(
            row,
            backend="cordic",
            input_bits=INPUT_BITS,
            samples=N_SAMPLES,
            window=[int(lo), int(hi)],
            min_speedup=MIN_SPEEDUP,
            release_end_to_end_ms=t_release,
        ),
    )
    record_experiment(
        "fused_guard_passes",
        "\n".join(
            [
                f"resampling-round passes, {N_SAMPLES} samples, Bu={INPUT_BITS}, "
                f"CORDIC log, window [{lo}, {hi}]",
                f"unfused chain : {row['unfused_ms']['median']:7.2f} ms "
                "(gather, 2b, 1-, sign*k, +codes, 2-pass mask, clip)",
                f"fused passes  : {row['fused_ms']['median']:7.2f} ms "
                "(signed gather+add, 1-pass mask, in-place clip)",
                f"speedup       : {speedup:.2f}x "
                f"[{row['speedup']['q1']:.2f}, {row['speedup']['q3']:.2f}] "
                f"(median of {row['repeats']}; floor {MIN_SPEEDUP:.1f}x)",
                f"end-to-end    : {t_release['median']:7.2f} ms/release "
                "(PCG64 generation included; no floor)",
            ]
        ),
    )
    assert speedup >= MIN_SPEEDUP, f"fused passes only {speedup:.2f}x faster"
