"""Parallel-fleet bench — sharded multi-core execution vs single-process.

Sweeps the sharded fleet runner (``repro.parallel.run_fleet_sharded``)
across fleet sizes under the hardware (CORDIC) logarithm with the live
per-draw datapath — the compute-bound regime where extra cores matter —
and reports, per size, the single-process time and the pool time.  Both
run on the one shared-memory transport.

Before timing anything it verifies the headline invariant: a run
sharded across W workers is bit-identical to the same plan at
``workers=1``, and a streaming run's shard moments equal a fold of a
retaining run's values shard by shard, bit for bit (24,000 devices in 8
shards, thousands of reports per shard-epoch); and on the first 96 of
those devices a ``shards=1`` run is bit-identical to the per-device
scalar reference loop (``run_fleet(batched=False)``).  Every one of those runs
must also hold the same disclosure ledger: the same tracked-device count
and the same bound for every device, whether it was charged per report
id, per ``Report`` object or as one dense array add.

Each fleet size is timed ``REPEATS`` times (``QUICK_REPEATS`` with
``--quick``), a single-process run then a pool run per repeat, and the
row records the median and quartiles of both times and of the per-repeat
speedup, next to a host block (cores, affinity, Python, NumPy).  One
more row, ``olh``, times the categorical coordinator the same way: OLH
(``repro.parallel.run_fleet_categorical``) over 200,000 devices × 8
epochs at d = 256, the size of the ``fleet-categorical-olh`` end-to-end
workload; its pooled counts must equal the single-process ones.  The
≥2× floor is checked against the headline row's median speedup, and
only on machines with ≥4 cores (and not in ``--quick`` mode); smaller
hosts still record the sweep so the trajectory is visible in
``BENCH_parallel.json`` (schema 4).

Standalone script (not pytest-benchmark): CI runs ``--quick`` with two
workers as a smoke test, developers run it bare for the full sweep.  A
``--quick`` run writes ``BENCH_parallel.quick.json`` (git-ignored), so
it never overwrites the committed full sweep; ``--output`` overrides
either default.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time

import numpy as np

from repro.aggregation import AggregationServer, fleet_device_id, run_fleet
from repro.mechanisms import SensorSpec
from repro.parallel import (
    plan_execution, plan_shards, run_fleet_categorical, run_fleet_sharded,
)
from repro.parallel.runner import draw_reporting
from repro.rng import CordicLn, audited_generator

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS_JSON = REPO_ROOT / "BENCH_parallel.json"
QUICK_RESULTS_JSON = REPO_ROOT / "BENCH_parallel.quick.json"

SENSOR = SensorSpec(0.0, 50.0)
EPSILON = 2.0
SEED = 20260806
MIN_SPEEDUP = 2.0
#: The floor only binds on machines with enough cores to show it.
MIN_CORES_FOR_FLOOR = 4

#: Fleet sizes swept (full mode) — the largest row is the headline.
SWEEP_SIZES = (5_000, 50_000, 500_000)
QUICK_SIZES = (500, 2_000)
#: Timed repeats per row: full mode, ``--quick``.
REPEATS = 5
QUICK_REPEATS = 3
#: The OLH row: ``(devices, epochs)`` in full mode and with ``--quick``.
OLH_SIZE = (200_000, 8)
QUICK_OLH_SIZE = (20_000, 4)
OLH_CATEGORIES = 256
OLH_DROPOUT = 0.1
#: The identity check's ``(epochs, devices)`` over 8 shards: about 2,550
#: reports per shard-epoch, enough that a change in the order a shard
#: reduces its batch moves the merged moments of some epochs.  The scalar
#: loop runs on the first ``SCALAR_DEVICES`` devices.
IDENTITY_SIZE = (6, 24_000)
SCALAR_DEVICES = 96


def _host():
    """Cores, affinity, interpreter and NumPy version of this host."""
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _summary(values):
    """Median and quartiles, as ``statistics.quantiles(values, n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def _ledger(server, n_devices: int):
    """``(n_devices_tracked, every device's disclosure bound)``."""
    return (
        server.snapshot()["n_devices_tracked"],
        [server.worst_case_disclosure(fleet_device_id(i)) for i in range(n_devices)],
    )


def _identity_check(workers: int) -> bool:
    """Bit-identity: W workers ≡ 1 worker, streaming ≡ retaining, and
    shards=1 ≡ the scalar reference loop.  The disclosure ledgers must
    agree too, across all of those, including the streaming run, whose
    bound is charged as one dense array add instead of per report id.

    The sharded runs hold thousands of reports per shard-epoch, so the
    streaming check sees the order in which a shard reduces its batch;
    the scalar loop, one release per report, runs on a small fleet."""
    epochs, n_devices = IDENTITY_SIZE
    truth = audited_generator(SEED).uniform(5.0, 45.0, size=(epochs, n_devices))
    common = dict(
        arm="thresholding",
        source_seed=SEED,
        dropout=0.15,
        device_budget=60.0,
    )
    one = run_fleet_sharded(
        truth, SENSOR, EPSILON, rng=audited_generator(1), shards=8, workers=1,
        with_devices=False, **common,
    )
    ledger = _ledger(one.server, n_devices)
    many = run_fleet_sharded(
        truth, SENSOR, EPSILON, rng=audited_generator(1), shards=8,
        workers=workers, with_devices=False, **common,
    )
    streamed = run_fleet_sharded(
        truth, SENSOR, EPSILON, rng=audited_generator(1), shards=8,
        workers=workers, streaming=True, with_devices=False, **common,
    )
    # The streaming shards ship moment rows; folding the retaining run's
    # values shard by shard, in shard order, must give the same moments.
    # An epoch's retained values are its shards' batches in shard order,
    # each as long as the shard's reporting set.
    reporting = draw_reporting(truth, common["dropout"], audited_generator(1))
    slices = plan_shards(n_devices, 8).slices
    replay = AggregationServer(streaming=True)
    for epoch in one.server.epochs:
        values = one.server.values(epoch)
        if not np.array_equal(values, many.server.values(epoch)):
            return False
        sizes = [np.count_nonzero(reporting[epoch, a:b]) for a, b in slices]
        for batch in np.split(values, np.cumsum(sizes)[:-1]):
            if batch.size:
                replay.submit_array(epoch, batch, 0.0)
        if streamed.server.moments(epoch) != replay.moments(epoch):
            return False
    if _ledger(many.server, n_devices) != ledger:
        return False
    if _ledger(streamed.server, n_devices) != ledger:
        return False

    small = truth[:, :SCALAR_DEVICES]
    scalar = run_fleet(
        small, SENSOR, EPSILON, rng=audited_generator(1), batched=False, **common
    )
    bridge = run_fleet_sharded(
        small, SENSOR, EPSILON, rng=audited_generator(1), shards=1, workers=1, **common
    )
    for epoch in scalar.server.epochs:
        if not np.array_equal(
            scalar.server.values(epoch), bridge.server.values(epoch)
        ):
            return False
    return _ledger(scalar.server, SCALAR_DEVICES) == _ledger(
        bridge.server, SCALAR_DEVICES
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


def _run_olh(truth, workers, shards):
    """One OLH categorical fleet run, as the end-to-end workload makes it."""
    t0 = time.perf_counter()
    result = run_fleet_categorical(
        truth,
        OLH_CATEGORIES,
        EPSILON,
        oracle="olh",
        dropout=OLH_DROPOUT,
        rng=audited_generator(2),
        source_seed=SEED,
        workers=workers,
        shards=shards,
    )
    return time.perf_counter() - t0, result


def _pairs(run, truth, workers, shards, repeats):
    """``repeats`` alternating single-process and pool runs of ``run``,
    summarized by median and quartiles; plus the last pair's results."""
    single, parallel = [], []
    for _ in range(repeats):
        t_single, one = run(truth, 1, shards)
        t_parallel, many = run(truth, workers, shards)
        single.append(t_single)
        parallel.append(t_parallel)
    return {
        "repeats": repeats,
        "t_single_s": _summary(single),
        "t_parallel_s": _summary(parallel),
        "speedup": _summary([a / b for a, b in zip(single, parallel)]),
    }, (one, many)


def _sweep_row(devices, epochs, workers, shards, repeats):
    """Single-process and pool timings for one numeric fleet size."""
    truth = audited_generator(SEED).uniform(5.0, 45.0, size=(epochs, devices))
    timings, _ = _pairs(_run, truth, workers, shards, repeats)
    return {"devices": devices, "epochs": epochs, **timings}


def _olh_row(devices, epochs, workers, shards, repeats):
    """The OLH coordinator's timings, and whether the pool's support
    counts and true frequencies equal the single process's."""
    truth = audited_generator(SEED).integers(
        0, OLH_CATEGORIES, size=(epochs, devices)
    )
    timings, (one, many) = _pairs(_run_olh, truth, workers, shards, repeats)
    identical = all(
        np.array_equal(one.server.category_counts(e)[0], many.server.category_counts(e)[0])
        and np.array_equal(one.true_frequencies[e], many.true_frequencies[e])
        for e in range(epochs)
    )
    row = {
        "oracle": "olh",
        "devices": devices,
        "epochs": epochs,
        "categories": OLH_CATEGORIES,
        "g": one.oracle.g,
        "dropout": OLH_DROPOUT,
        **timings,
    }
    return row, identical


def _print_row(label, row):
    single, parallel, speedup = (
        row[k] for k in ("t_single_s", "t_parallel_s", "speedup")
    )
    print(
        f"{label}  single={single['median']:.3f}s "
        f"[{single['q1']:.3f}, {single['q3']:.3f}]  "
        f"parallel={parallel['median']:.3f}s "
        f"[{parallel['q1']:.3f}, {parallel['q3']:.3f}]  "
        f"speedup={speedup['median']}x [{speedup['q1']}, {speedup['q3']}]"
    )


def parse_args(argv=None) -> argparse.Namespace:
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
        "--output", type=pathlib.Path, default=None,
        help="where to write the schema-4 JSON results (default: "
        "BENCH_parallel.json, or BENCH_parallel.quick.json with --quick)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small fleets, 2 workers, no speedup floor",
    )
    args = parser.parse_args(argv)
    if args.output is None:
        args.output = QUICK_RESULTS_JSON if args.quick else RESULTS_JSON
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    host = _host()
    cores = host["cores"] or 1
    if args.quick:
        sizes = tuple(args.sizes) if args.sizes else QUICK_SIZES
        epochs = min(args.epochs, 4)
        workers = 2 if args.workers is None else args.workers
        repeats = QUICK_REPEATS
    else:
        sizes = tuple(args.sizes) if args.sizes else SWEEP_SIZES
        epochs = args.epochs
        workers = min(4, cores) if args.workers is None else args.workers
        repeats = REPEATS
    assert_floor = (
        not args.quick
        and cores >= MIN_CORES_FOR_FLOOR
        and workers >= MIN_CORES_FOR_FLOOR
    )
    shards = plan_shards(max(sizes), args.shards).n_shards
    plan = plan_execution(max(sizes), epochs, shards=args.shards)

    print(f"cores={cores} workers={workers} shards={shards} "
          f"sizes={list(sizes)} epochs={epochs} repeats={repeats}")
    print(f"planner would choose: {plan.describe()} ({plan.reason})")

    bit_identical = _identity_check(workers)
    print(f"bit-identity (W={workers} vs W=1, streaming vs retaining, "
          f"shards=1 vs scalar loop, ledgers incl. streaming): "
          f"{'OK' if bit_identical else 'FAILED'}")

    # Warm codebook/table caches outside the timed region.
    warm = audited_generator(SEED).uniform(5.0, 45.0, size=(1, 256))
    _run(warm, 1, args.shards)

    sweep = []
    for devices in sizes:
        row = _sweep_row(devices, epochs, workers, args.shards, repeats)
        sweep.append(row)
        _print_row(f"devices={devices:>7d}", row)

    olh_devices, olh_epochs = QUICK_OLH_SIZE if args.quick else OLH_SIZE
    olh, olh_identical = _olh_row(olh_devices, olh_epochs, workers, args.shards, repeats)
    _print_row(f"olh {olh_devices}x{olh_epochs}", olh)
    print(f"olh pooled counts equal single-process: {'OK' if olh_identical else 'FAILED'}")
    bit_identical = bit_identical and olh_identical

    headline = sweep[-1]["speedup"]["median"]
    payload = {
        "schema": 4,
        "host": host,
        "repeats": repeats,
        "workers": workers,
        "shards": shards,
        "arm": "thresholding",
        "datapath": "cordic-live",
        "planner": plan.describe(),
        "sweep": sweep,
        "olh": olh,
        "speedup": headline,
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
    if assert_floor and headline < MIN_SPEEDUP:
        print(f"FAIL: median speedup {headline:.2f}x below the "
              f"{MIN_SPEEDUP}x floor on a {cores}-core machine")
        return 1
    if not assert_floor:
        print(f"speedup floor not asserted "
              f"(quick={args.quick}, cores={cores} < {MIN_CORES_FOR_FLOOR} "
              f"or workers={workers} < {MIN_CORES_FOR_FLOOR})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
