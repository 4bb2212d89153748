"""Parallel-fleet bench — sharded multi-core execution vs single-process.

Sweeps the sharded fleet runner (``repro.parallel.run_fleet_sharded``)
across fleet sizes under the hardware (CORDIC) logarithm with the live
per-draw datapath — the compute-bound regime where extra cores matter —
and reports, per size, the single-process time and the pool time.  Both
run on the one shared-memory transport.

Before timing anything it verifies the headline invariant on a small
fleet: a run sharded across W workers is bit-identical to the same plan
at ``workers=1``, a streaming run folds the same values as a retaining
one, and a ``shards=1`` run is bit-identical to the legacy unsharded
batched fleet.  Every one of those runs must also hold the same
disclosure ledger: the same tracked-device count and the same bound for
every device, whether it was charged per report id or as one dense
array add.

The ≥2× speedup floor is only asserted on machines with ≥4 cores (and
not in ``--quick`` mode); smaller hosts still record the sweep so the
trajectory is visible in ``BENCH_parallel.json`` (schema 3).

Standalone script (not pytest-benchmark): CI runs ``--quick`` with two
workers as a smoke test, developers run it bare for the full sweep.
"""

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

from repro.aggregation import fleet_device_id, run_fleet
from repro.mechanisms import SensorSpec
from repro.parallel import plan_execution, plan_shards, run_fleet_sharded
from repro.rng import CordicLn, audited_generator

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS_JSON = REPO_ROOT / "BENCH_parallel.json"

SENSOR = SensorSpec(0.0, 50.0)
EPSILON = 2.0
SEED = 20260806
MIN_SPEEDUP = 2.0
#: The floor only binds on machines with enough cores to show it.
MIN_CORES_FOR_FLOOR = 4

#: Fleet sizes swept (full mode) — the 50k row is the headline number.
SWEEP_SIZES = (5_000, 50_000, 500_000)
QUICK_SIZES = (500, 2_000)


def _ledger(server, n_devices: int):
    """``(n_devices_tracked, every device's disclosure bound)``."""
    return (
        server.snapshot()["n_devices_tracked"],
        [server.worst_case_disclosure(fleet_device_id(i)) for i in range(n_devices)],
    )


def _identity_check(workers: int) -> bool:
    """Bit-identity: W workers ≡ 1 worker, streaming ≡ retaining, and
    shards=1 ≡ unsharded.  The disclosure ledgers must agree too, across
    all of those, including the streaming run, whose bound is charged as
    one dense array add instead of per report id."""
    truth = audited_generator(SEED).uniform(5.0, 45.0, size=(4, 96))
    n_devices = truth.shape[1]
    common = dict(
        arm="thresholding",
        source_seed=SEED,
        dropout=0.15,
        device_budget=60.0,
    )
    one = run_fleet_sharded(
        truth, SENSOR, EPSILON, rng=audited_generator(1), shards=8, workers=1, **common
    )
    ledger = _ledger(one.server, n_devices)
    many = run_fleet_sharded(
        truth, SENSOR, EPSILON, rng=audited_generator(1), shards=8,
        workers=workers, **common,
    )
    streamed = run_fleet_sharded(
        truth, SENSOR, EPSILON, rng=audited_generator(1), shards=8,
        workers=workers, streaming=True, with_devices=False, **common,
    )
    for epoch in one.server.epochs:
        values = one.server.values(epoch)
        if not np.array_equal(values, many.server.values(epoch)):
            return False
        if streamed.server.summarize(epoch).n_reports != values.size:
            return False
        if not np.isclose(
            streamed.server.summarize(epoch).mean, values.mean(), rtol=1e-12
        ):
            return False
    if _ledger(many.server, n_devices) != ledger:
        return False
    if _ledger(streamed.server, n_devices) != ledger:
        return False

    legacy = run_fleet(
        truth, SENSOR, EPSILON, rng=audited_generator(1), batched=True, **common
    )
    bridge = run_fleet_sharded(
        truth, SENSOR, EPSILON, rng=audited_generator(1), shards=1, workers=1, **common
    )
    for epoch in legacy.server.epochs:
        if not np.array_equal(
            legacy.server.values(epoch), bridge.server.values(epoch)
        ):
            return False
    return (
        _ledger(legacy.server, n_devices) == ledger
        and _ledger(bridge.server, n_devices) == ledger
    )


def _run(truth, workers, shards):
    """One streaming sharded run on the live CORDIC datapath."""
    t0 = time.perf_counter()
    result = run_fleet_sharded(
        truth,
        SENSOR,
        EPSILON,
        arm="thresholding",
        source_seed=SEED,
        rng=audited_generator(2),
        workers=workers,
        shards=shards,
        streaming=True,
        with_devices=False,
        log_backend=CordicLn(),
        kernel="live",
    )
    return time.perf_counter() - t0, result


def _sweep_row(devices, epochs, workers, shards):
    """Single-process and pool timings for one fleet size."""
    truth = audited_generator(SEED).uniform(5.0, 45.0, size=(epochs, devices))
    t_single, _ = _run(truth, 1, shards)
    t_parallel, _ = _run(truth, workers, shards)
    return {
        "devices": devices,
        "epochs": epochs,
        "t_single_s": round(t_single, 4),
        "t_parallel_s": round(t_parallel, 4),
        "speedup": round(t_single / t_parallel, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=24)
    parser.add_argument("--workers", type=int, default=None,
                        help="default: min(4, cpu_count)")
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument(
        "--sizes", type=int, nargs="*", default=None,
        help="fleet sizes to sweep (default: 5k/50k/500k, or small in --quick)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=RESULTS_JSON,
        help="where to write the schema-3 JSON results",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small fleets, 2 workers, no speedup floor",
    )
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    if args.quick:
        sizes = tuple(args.sizes) if args.sizes else QUICK_SIZES
        epochs = min(args.epochs, 4)
        workers = 2 if args.workers is None else args.workers
    else:
        sizes = tuple(args.sizes) if args.sizes else SWEEP_SIZES
        epochs = args.epochs
        workers = min(4, cores) if args.workers is None else args.workers
    assert_floor = (
        not args.quick
        and cores >= MIN_CORES_FOR_FLOOR
        and workers >= MIN_CORES_FOR_FLOOR
    )
    shards = plan_shards(max(sizes), args.shards).n_shards
    plan = plan_execution(max(sizes), epochs, shards=args.shards)

    print(f"cores={cores} workers={workers} shards={shards} "
          f"sizes={list(sizes)} epochs={epochs}")
    print(f"planner would choose: {plan.describe()} ({plan.reason})")

    bit_identical = _identity_check(workers)
    print(f"bit-identity (W={workers} vs W=1, streaming vs retaining, "
          f"shards=1 vs unsharded, ledgers incl. streaming): "
          f"{'OK' if bit_identical else 'FAILED'}")

    # Warm codebook/table caches outside the timed region.
    warm = audited_generator(SEED).uniform(5.0, 45.0, size=(1, 256))
    _run(warm, 1, args.shards)

    sweep = []
    for devices in sizes:
        row = _sweep_row(devices, epochs, workers, args.shards)
        sweep.append(row)
        print(
            f"devices={devices:>7d}  single={row['t_single_s']:.3f}s  "
            f"parallel={row['t_parallel_s']:.3f}s  speedup={row['speedup']}x"
        )

    headline = sweep[-1]
    payload = {
        "schema": 3,
        "cores": cores,
        "workers": workers,
        "shards": shards,
        "arm": "thresholding",
        "datapath": "cordic-live",
        "planner": plan.describe(),
        "sweep": sweep,
        "speedup": headline["speedup"],
        "speedup_floor": MIN_SPEEDUP,
        "floor_asserted": assert_floor,
        "bit_identical": bit_identical,
        "quick": args.quick,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    if not bit_identical:
        print("FAIL: sharded run is not bit-identical across worker counts")
        return 1
    if assert_floor and headline["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {headline['speedup']:.2f}x below the "
              f"{MIN_SPEEDUP}x floor on a {cores}-core machine")
        return 1
    if not assert_floor:
        print(f"speedup floor not asserted "
              f"(quick={args.quick}, cores={cores} < {MIN_CORES_FOR_FLOOR} "
              f"or workers={workers} < {MIN_CORES_FOR_FLOOR})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
