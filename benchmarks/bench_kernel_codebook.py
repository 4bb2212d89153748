"""Codebook-kernel bench — precomputed code→noise tables vs live datapath.

Seeds the perf trajectory for the sampling kernel (docs/performance.md):
times the resampling arm at 1M draws under the hardware (CORDIC) log
datapath with the codebook kernel against the live per-draw datapath,
asserts the ≥3× floor on the median speedup, and times raw
``sample_codes`` for both Laplace log back-ends and for the staircase,
Gaussian and geometric generators (each bit-identical across kernels),
plus the batched-vs-scalar fleet epoch (budgeted, 10% dropout), whose
median speedup must be ≥5×.  Every
row is timed by the method in ``_kernel_results.py`` (alternating
repeats, median and quartiles, host block); the results
land in ``BENCH_kernels.json`` at the repo root so future PRs can track
regressions, and the human-readable table goes to
``benchmarks/results/`` like every other bench.
"""

import numpy as np

from repro.aggregation import run_fleet
from repro.mechanisms import ResamplingMechanism, SensorSpec
from repro.rng import (
    CordicLn,
    FxpDatapath,
    FxpGaussianRng,
    FxpGeometricRng,
    FxpLaplaceRng,
    FxpStaircaseRng,
    IdealTwoSidedGeometric,
    NumpySource,
    StaircaseParams,
    gaussian_sigma,
    geometric_alpha,
)
from repro.rng.codebook import codebook_cache
from repro.runtime import ReleasePipeline

from _kernel_results import merge_results, speedup_row, time_pairs
from conftest import record_experiment

SENSOR = SensorSpec(0.0, 10.0)
EPSILON = 0.5
INPUT_BITS = 14
N_DRAWS = 1_000_000
MIN_SPEEDUP = 3.0
#: Floor on the codebook's median ``sample_codes`` speedup for the
#: staircase, Gaussian and geometric generators (measured ≈3–7×).
MIN_GENERATOR_SPEEDUP = 1.5

FLEET_DEVICES = 2_000
FLEET_EPOCHS = 3
FLEET_BUDGET = 2.5
FLEET_DROPOUT = 0.1
#: Floor on the batched fleet's median speedup over the scalar loop.
MIN_FLEET_SPEEDUP = 5.0


def bench_kernel_resampling_arm(benchmark):
    """Resampling-arm releases at 1M draws: codebook must be ≥3× live.

    The hardware-faithful CORDIC logarithm is the datapath the codebook
    collapses into a gather; the live arm re-runs the CORDIC iteration
    on every draw and every resample round.
    """
    backend = CordicLn()
    truth = np.random.default_rng(11).uniform(1.0, 9.0, N_DRAWS)

    def build(kernel):
        return ResamplingMechanism(
            SENSOR,
            EPSILON,
            input_bits=INPUT_BITS,
            log_backend=backend,
            kernel=kernel,
            pipeline=ReleasePipeline(),
        )

    events = {}

    def release(name, mech):
        def run():
            events[name] = mech.release(truth).event
        return run

    def run():
        mech_cb = build("codebook")
        mech_live = build("live")
        # Warm both arms (table build / numpy dispatch) outside the timing.
        mech_cb.release(truth[:1000])
        mech_live.release(truth[:1000])
        return time_pairs(release("codebook", mech_cb), release("live", mech_live))

    t_cb, t_live = benchmark.pedantic(run, rounds=1, iterations=1)
    ev_cb, ev_live = events["codebook"], events["live"]
    row = speedup_row(t_cb, t_live, "codebook", "live")
    speedup = row["speedup"]["median"]
    merge_results(
        "resampling_arm",
        dict(
            row,
            backend="cordic",
            input_bits=INPUT_BITS,
            samples=N_DRAWS,
            draws_codebook=ev_cb.draws,
            draws_live=ev_live.draws,
            min_speedup=MIN_SPEEDUP,
        ),
    )
    record_experiment(
        "kernel_codebook_resampling",
        "\n".join(
            [
                f"resampling arm, {N_DRAWS} samples, Bu={INPUT_BITS}, CORDIC log, "
                f"median of {row['repeats']}",
                f"live datapath : {row['live_s']['median']:.3f} s ({ev_live.draws} draws)",
                f"codebook      : {row['codebook_s']['median']:.3f} s ({ev_cb.draws} draws)",
                f"speedup       : {speedup:.1f}x "
                f"[{row['speedup']['q1']:.1f}, {row['speedup']['q3']:.1f}] "
                f"(floor {MIN_SPEEDUP:.0f}x)",
                f"kernels       : {ev_cb.kernel} vs {ev_live.kernel}",
            ]
        ),
    )
    assert ev_cb.kernel == "codebook" and ev_live.kernel == "live"
    assert speedup >= MIN_SPEEDUP, f"codebook kernel only {speedup:.1f}x faster"


def _generator(name, kernel):
    """The generator of one ``sample_codes`` row, seeded identically per kernel."""
    d = SENSOR.d
    datapath = FxpDatapath(input_bits=INPUT_BITS, output_bits=20, delta=d / 64.0)
    kw = dict(source=NumpySource(seed=3), kernel=kernel)
    if name in ("exact", "cordic"):
        backend = CordicLn() if name == "cordic" else None
        return FxpLaplaceRng(datapath, d / EPSILON, log_backend=backend, **kw)
    if name == "staircase":
        return FxpStaircaseRng(datapath, StaircaseParams(sensitivity=d, epsilon=EPSILON), **kw)
    if name == "gaussian":
        return FxpGaussianRng(datapath, gaussian_sigma(d, EPSILON, 1e-5), **kw)
    alpha = geometric_alpha(d, EPSILON, datapath.delta)
    return FxpGeometricRng(datapath, IdealTwoSidedGeometric(alpha), **kw)


def bench_kernel_sample_codes(benchmark):
    """Raw ``sample_codes`` timing, codebook vs live, for every generator."""

    def run():
        rows = {}
        for name in ("exact", "cordic", "staircase", "gaussian", "geometric"):
            rngs = {k: _generator(name, k) for k in ("codebook", "live")}
            outs = {}

            def draw(kernel):
                def go():
                    outs[kernel] = rngs[kernel].sample_codes(N_DRAWS)
                return go

            for rng in rngs.values():
                rng.sample_codes(1000)  # warm (table build / dispatch)
            t_cb, t_live = time_pairs(draw("codebook"), draw("live"))
            rows[name] = dict(
                speedup_row(t_cb, t_live, "codebook", "live"),
                bit_identical=bool(np.array_equal(outs["codebook"], outs["live"])),
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    merge_results(
        "sample_codes",
        dict(
            rows,
            samples=N_DRAWS,
            input_bits=INPUT_BITS,
            min_generator_speedup=MIN_GENERATOR_SPEEDUP,
        ),
    )
    record_experiment(
        "kernel_codebook_sample_codes",
        "\n".join(
            [f"sample_codes, {N_DRAWS} draws, Bu={INPUT_BITS}, "
             f"median of {rows['cordic']['repeats']}"]
            + [
                f"{name:9s}: codebook {r['codebook_s']['median'] * 1e3:7.1f} ms, "
                f"live {r['live_s']['median'] * 1e3:7.1f} ms "
                f"({r['speedup']['median']:.1f}x)"
                for name, r in rows.items()
            ]
        ),
    )
    assert all(r["bit_identical"] for r in rows.values())
    # The CORDIC datapath is where tables shine; the exact-log path must
    # at minimum not regress.
    assert rows["cordic"]["speedup"]["median"] >= MIN_SPEEDUP
    exact = rows["exact"]
    assert exact["codebook_s"]["median"] <= exact["live_s"]["median"] * 1.25
    for name in ("staircase", "gaussian", "geometric"):
        assert rows[name]["speedup"]["median"] >= MIN_GENERATOR_SPEEDUP, name


def bench_kernel_fleet_paths(benchmark):
    """Fleet epoch timings under the codebook kernel, batched vs scalar.

    Budgeted, with 10% dropout: the batched path charges every device's
    budget in one array pass per epoch, the scalar loop per report.  Both
    share one seed, so the reports must match bit for bit, and the
    batched path must be ≥5× faster in the median.
    """
    truth = np.random.default_rng(5).uniform(
        2.0, 8.0, size=(FLEET_EPOCHS, FLEET_DEVICES)
    )
    kwargs = dict(
        epsilon=EPSILON,
        device_budget=FLEET_BUDGET,
        dropout=FLEET_DROPOUT,
        source_seed=7,
        input_bits=13,
        output_bits=18,
        delta=10 / 64,
        pipeline=ReleasePipeline(),
    )
    results = {}

    def fleet(batched):
        def run():
            results[batched] = run_fleet(
                truth, SENSOR, rng=np.random.default_rng(4), batched=batched,
                **kwargs,
            )
        return run

    t_batched, t_scalar = benchmark.pedantic(
        time_pairs, args=(fleet(True), fleet(False)), rounds=1, iterations=1
    )
    batched, scalar = results[True], results[False]
    identical = all(
        np.array_equal(batched.server.values(e), scalar.server.values(e))
        for e in batched.server.epochs
    )
    row = speedup_row(t_batched, t_scalar, "batched", "scalar")
    merge_results(
        "fleet",
        dict(
            row,
            devices=FLEET_DEVICES,
            epochs=FLEET_EPOCHS,
            device_budget=FLEET_BUDGET,
            dropout=FLEET_DROPOUT,
            min_speedup=MIN_FLEET_SPEEDUP,
            bit_identical=identical,
            cache_stats=codebook_cache().stats(),
        ),
    )
    record_experiment(
        "kernel_codebook_fleet",
        "\n".join(
            [
                f"fleet {FLEET_DEVICES} devices x {FLEET_EPOCHS} epochs, "
                f"budget {FLEET_BUDGET}, {FLEET_DROPOUT:.0%} dropout, "
                f"codebook kernel, median of {row['repeats']}",
                f"batched : {row['batched_s']['median']:.3f} s",
                f"scalar  : {row['scalar_s']['median']:.3f} s",
                f"speedup : {row['speedup']['median']:.1f}x "
                f"(floor {MIN_FLEET_SPEEDUP:.0f}x)",
                "outputs : " + ("bit-identical" if identical else "MISMATCH"),
            ]
        ),
    )
    assert identical
    assert row["speedup"]["median"] >= MIN_FLEET_SPEEDUP, (
        f"batched path only {row['speedup']['median']:.1f}x faster"
    )
