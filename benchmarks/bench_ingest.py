"""Ingestion-service bench — both wires, throughput, latency, and bytes.

Starts the asyncio ingestion service in-process on a loopback socket and
drives it with the deterministic load generator
(:func:`repro.service.run_load`), sweeping report-batch size **per
wire**: the default JSONL v1 and the negotiated binary columnar v2.
Per row it records reports/sec, wire bytes per admitted report, the
server-side admission-latency percentiles (p50 / p99), the
client-observed round-trip percentiles, and the admission tallies
(repaired / blocked / busy retries / internal errors).

Measurement discipline: the load generator pipelines requests
(``PIPELINE`` in flight) so throughput reflects the admission path, not
serial round-trip stalls; the garbage collector is paused around each
timed burst (hundreds of thousands of tracked device ids make gen-2
collections expensive and noisy); each cell is the median of
``--trials`` runs on a fresh server.

Before timing anything it verifies the headline seam invariant on
**both wires**: a fleet epoch ingested over the socket is bit-identical
to the same epoch submitted in-process via
``AggregationServer.submit_array``.

The sweep sends fresh device ids only, so it never leaves the guards'
first-contact paths.  A second, **steady-state** row per wire runs a
fixed fleet that re-reports every epoch with ``device_budget`` set, so
every report takes the per-device budget, rate-limit and disclosure
paths; it must be bit-identical to in-process ``submit_array`` and
leave every device's ``worst_case_disclosure`` at exactly epochs x
loss.

Floors (full mode): ≥5k reports/sec on either wire, zero internal
errors, zero busy retries (fold order stays batch order under the
pipelined window), and the headline ratio — binary vs JSONL reports/s
at batch_size=1024 — at least ``MIN_BINARY_SPEEDUP``.  Standalone
script (not pytest-benchmark): CI runs ``--quick --wire <w>`` as the
ingest smoke matrix, developers run it bare for the full sweep.
"""

import argparse
import gc
import json
import pathlib
import socket
import statistics
import sys
import time

from repro.aggregation import AggregationServer
from repro.rng import audited_generator
from repro.service import IngestClient, ServiceConfig, run_load
from repro.service.server import serve_in_thread

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS_JSON = REPO_ROOT / "BENCH_ingest.json"

SEED = 20260808
#: Acceptance floor: the service must sustain this on loopback.
MIN_REPORTS_PER_S = 5_000
#: Headline acceptance: binary wire throughput vs JSONL at batch 1024.
MIN_BINARY_SPEEDUP = 3.0
#: Request window depth for the load generator (queue_capacity is 64 by
#: default, so the window never trips busy backpressure).
PIPELINE = 16

WIRES = ("jsonl", "binary")

#: (batch_size, n_batches) rows swept — the last row is the headline.
SWEEP = ((64, 400), (256, 400), (1024, 200))
QUICK_SWEEP = ((64, 40), (256, 40))

#: Steady-state row: (devices, epochs, batch_size) of the fixed fleet.
STEADY = (8192, 12, 1024)
QUICK_STEADY = (2048, 3, 512)
STEADY_LOSS = 0.5


def _identity_check(wire: str) -> bool:
    """Socket-fed epochs ≡ in-process ``submit_array``, bit for bit."""
    gen = audited_generator(SEED)
    batches = []
    for b in range(8):
        values = gen.uniform(0.0, 50.0, size=193)
        ids = [f"dev-{b}-{i}" for i in range(values.size)]
        batches.append((b % 3, ids, values))

    in_process = AggregationServer(streaming=True)
    for epoch, ids, values in batches:
        in_process.submit_array(epoch, values, 1.0, device_ids=ids)

    socket_fed = AggregationServer(streaming=True)
    with serve_in_thread(socket_fed, ServiceConfig()) as handle:
        host, port = handle.address
        with IngestClient(host, port, wire=wire) as client:
            for epoch, ids, values in batches:
                reply = client.submit(epoch, ids, values, claimed_loss=1.0)
                assert reply["status"] == "admitted", reply
        handle.stop()
    return socket_fed.snapshot() == in_process.snapshot()


def _trial(
    wire: str, batch_size: int, n_batches: int, queue_capacity: int
) -> dict:
    aggregation = AggregationServer(streaming=True)
    config = ServiceConfig(queue_capacity=queue_capacity)
    with serve_in_thread(aggregation, config) as handle:
        host, port = handle.address
        gc.collect()
        gc.disable()
        try:
            load = run_load(
                host,
                port,
                batches=n_batches,
                batch_size=batch_size,
                epochs=max(4, n_batches),  # distinct epochs: no rate noise
                seed=SEED,
                wire=wire,
                pipeline=PIPELINE,
            )
        finally:
            gc.enable()
        handle.stop()
    metrics = load.server_metrics

    def us(key):
        value = metrics.get(key)
        return None if value is None else round(value, 1)

    return {
        "wire": wire,
        "batch_size": batch_size,
        "n_batches": n_batches,
        "pipeline": PIPELINE,
        "reports_admitted": load.reports_admitted,
        "n_repaired": load.n_repaired,
        "n_blocked": load.n_blocked,
        "n_busy_retries": load.n_busy_retries,
        "elapsed_s": round(load.elapsed_s, 4),
        "reports_per_s": round(load.reports_per_s, 1),
        "wire_bytes_sent": load.wire_bytes_sent,
        "wire_bytes_per_report": round(load.wire_bytes_per_report, 2),
        "client_rtt_p50_us": round(load.latency_p50_us, 1),
        "client_rtt_p99_us": round(load.latency_p99_us, 1),
        "server_admit_p50_us": us("latency_p50_us"),
        "server_admit_p99_us": us("latency_p99_us"),
        "max_queue_depth": metrics.get("max_queue_depth"),
        "internal_errors": metrics.get("internal_errors"),
    }


def _steady_trial(wire: str, devices: int, epochs: int, batch_size: int) -> dict:
    """A fixed fleet re-reporting every epoch under a device budget.

    Each epoch is a seeded permutation of the fleet cut into
    ``batch_size`` requests, sent pipelined on one connection.  The
    budget is exactly ``epochs x STEADY_LOSS``, so every report is
    admitted and the last epoch fills each device's budget.
    """
    gen = audited_generator(SEED)
    fleet = [f"fleet-{i:05d}" for i in range(devices)]
    batches = []
    for epoch in range(epochs):
        order = gen.permutation(devices)
        values = gen.uniform(0.0, 50.0, size=devices)
        for start in range(0, devices, batch_size):
            ids = [fleet[i] for i in order[start:start + batch_size]]
            batches.append((epoch, ids, values[start:start + batch_size]))

    in_process = AggregationServer(streaming=True)
    for epoch, ids, values in batches:
        in_process.submit_array(epoch, values, STEADY_LOSS, device_ids=ids)

    socket_fed = AggregationServer(streaming=True)
    config = ServiceConfig(device_budget=epochs * STEADY_LOSS)
    statuses = {}
    gc.collect()
    gc.disable()
    try:
        with serve_in_thread(socket_fed, config) as handle:
            with IngestClient(*handle.address, wire=wire) as client:
                payloads = [
                    client.encode_submit(epoch, ids, values, STEADY_LOSS)
                    for epoch, ids, values in batches
                ]
                t0 = time.perf_counter()
                in_flight = 0
                for payload in payloads:
                    client.send_raw(payload)
                    in_flight += 1
                    if in_flight == PIPELINE:
                        status = client.read_reply()["status"]
                        statuses[status] = statuses.get(status, 0) + 1
                        in_flight -= 1
                for _ in range(in_flight):
                    status = client.read_reply()["status"]
                    statuses[status] = statuses.get(status, 0) + 1
            handle.stop()  # drains: every admitted batch is folded
            elapsed = time.perf_counter() - t0
            metrics = handle.service.counters.ingest_summary()
    finally:
        gc.enable()
    expected = epochs * STEADY_LOSS
    return {
        "wire": wire,
        "devices": devices,
        "epochs": epochs,
        "batch_size": batch_size,
        "device_budget": expected,
        "statuses": statuses,
        "reports_per_s": round(devices * epochs / elapsed, 1),
        "server_admit_p50_us": metrics.get("latency_p50_us"),
        "server_admit_p99_us": metrics.get("latency_p99_us"),
        "internal_errors": metrics.get("internal_errors"),
        "bit_identical": socket_fed.snapshot() == in_process.snapshot(),
        "disclosure_exact": all(
            socket_fed.worst_case_disclosure(d) == expected for d in fleet
        ),
    }


def _steady_row(wire: str, spec, trials: int) -> dict:
    rows = [_steady_trial(wire, *spec) for _ in range(trials)]
    rates = sorted(row["reports_per_s"] for row in rows)
    median_rate = statistics.median(rates)
    row = min(rows, key=lambda r: abs(r["reports_per_s"] - median_rate))
    row["trials"] = trials
    row["reports_per_s_spread"] = [rates[0], rates[-1]]
    # Correctness must hold on every trial, not just the median one.
    row["bit_identical"] = all(r["bit_identical"] for r in rows)
    row["disclosure_exact"] = all(r["disclosure_exact"] for r in rows)
    row["all_admitted"] = all(
        set(r["statuses"]) == {"admitted"} for r in rows
    )
    row["internal_errors"] = sum(r["internal_errors"] or 0 for r in rows)
    return row


def _sweep_cell(
    wire: str,
    batch_size: int,
    n_batches: int,
    queue_capacity: int,
    trials: int,
) -> dict:
    rows = [
        _trial(wire, batch_size, n_batches, queue_capacity)
        for _ in range(trials)
    ]
    rates = sorted(row["reports_per_s"] for row in rows)
    median_rate = statistics.median(rates)
    # Report the trial whose rate is the median; carry the spread.
    row = min(rows, key=lambda r: abs(r["reports_per_s"] - median_rate))
    row["trials"] = trials
    row["reports_per_s_spread"] = [rates[0], rates[-1]]
    # Tallies must be clean on *every* trial, not just the median one.
    row["internal_errors"] = sum(r["internal_errors"] or 0 for r in rows)
    row["n_busy_retries"] = sum(r["n_busy_retries"] for r in rows)
    row["n_blocked"] = sum(r["n_blocked"] for r in rows)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--queue-capacity", type=int, default=64,
        help="service backpressure bound (pending whole batches)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=RESULTS_JSON,
        help="where to write the schema-2 JSON results",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: short bursts, one trial, no speedup floor",
    )
    parser.add_argument(
        "--wire",
        choices=(*WIRES, "both"),
        default="both",
        help="restrict the sweep to one wire (CI matrix axis)",
    )
    parser.add_argument(
        "--trials", type=int, default=None,
        help="trials per cell, median reported (default: 3, quick: 1)",
    )
    args = parser.parse_args(argv)

    sweep_spec = QUICK_SWEEP if args.quick else SWEEP
    trials = args.trials if args.trials else (1 if args.quick else 3)
    wires = WIRES if args.wire == "both" else (args.wire,)
    print(f"host={socket.gethostname()} loopback sweep={list(sweep_spec)} "
          f"wires={list(wires)} queue_capacity={args.queue_capacity} "
          f"pipeline={PIPELINE} trials={trials}")

    bit_identical = {wire: _identity_check(wire) for wire in wires}
    for wire, ok in bit_identical.items():
        print(f"bit-identity ({wire} socket-fed vs in-process submit_array): "
              f"{'OK' if ok else 'FAILED'}")

    sweep = []
    for batch_size, n_batches in sweep_spec:
        for wire in wires:
            row = _sweep_cell(
                wire, batch_size, n_batches, args.queue_capacity, trials
            )
            sweep.append(row)
            print(
                f"{wire:>6s} batch={batch_size:>5d} x{n_batches:<4d} "
                f"{row['reports_per_s']:>10,.0f} reports/s  "
                f"{row['wire_bytes_per_report']:>6.1f} B/report  "
                f"admit p50 {row['server_admit_p50_us']} us / "
                f"p99 {row['server_admit_p99_us']} us  "
                f"errors {row['internal_errors']}"
            )

    steady_spec = QUICK_STEADY if args.quick else STEADY
    steady = {}
    for wire in wires:
        row = steady[wire] = _steady_row(wire, steady_spec, trials)
        print(
            f"{wire:>6s} steady-state budgeted {row['devices']} devices x "
            f"{row['epochs']} epochs, batch={row['batch_size']}: "
            f"{row['reports_per_s']:>10,.0f} reports/s  "
            f"admit p50 {row['server_admit_p50_us']} us  "
            f"bit-identical {row['bit_identical']}  "
            f"disclosure exact {row['disclosure_exact']}"
        )

    headline_batch = sweep_spec[-1][0]
    by_wire = {
        row["wire"]: row
        for row in sweep
        if row["batch_size"] == headline_batch
    }
    speedup = None
    if "jsonl" in by_wire and "binary" in by_wire:
        speedup = round(
            by_wire["binary"]["reports_per_s"]
            / by_wire["jsonl"]["reports_per_s"],
            2,
        )
        print(f"headline batch={headline_batch}: binary/jsonl = {speedup}x")

    payload = {
        "schema": 2,
        "transport": "loopback-tcp",
        "wires": list(wires),
        "queue_capacity": args.queue_capacity,
        "pipeline": PIPELINE,
        "trials": trials,
        "sweep": sweep,
        "steady_state": steady,
        "headline_batch_size": headline_batch,
        "reports_per_s": {
            wire: row["reports_per_s"] for wire, row in by_wire.items()
        },
        "wire_bytes_per_report": {
            wire: row["wire_bytes_per_report"]
            for wire, row in by_wire.items()
        },
        "binary_speedup": speedup,
        "throughput_floor": MIN_REPORTS_PER_S,
        "speedup_floor": MIN_BINARY_SPEEDUP,
        "bit_identical": bit_identical,
        "quick": args.quick,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    failed = False
    for wire, ok in bit_identical.items():
        if not ok:
            print(f"FAIL: {wire} socket-fed epoch is not bit-identical to "
                  f"in-process submission")
            failed = True
    for wire, row in steady.items():
        if not (row["bit_identical"] and row["disclosure_exact"]):
            print(f"FAIL: {wire} steady-state run is not bit-identical to "
                  f"in-process submission or mis-charged the ledger")
            failed = True
        if not row["all_admitted"]:
            print(f"FAIL: {wire} steady-state run refused reports "
                  f"within budget: {row['statuses']}")
            failed = True
    internal_errors = sum(
        row["internal_errors"] or 0 for row in [*sweep, *steady.values()]
    )
    if internal_errors:
        print(f"FAIL: {internal_errors} internal-error admission(s)")
        failed = True
    for row in [*sweep, *steady.values()]:
        if row["reports_per_s"] < MIN_REPORTS_PER_S:
            print(f"FAIL: {row['wire']} batch={row['batch_size']} at "
                  f"{row['reports_per_s']:,.0f} reports/s is below the "
                  f"{MIN_REPORTS_PER_S:,} floor")
            failed = True
    if not args.quick:
        busy = sum(row["n_busy_retries"] for row in sweep)
        if busy:
            print(f"FAIL: {busy} busy retries (pipelined fold order no "
                  f"longer batch order)")
            failed = True
        if speedup is not None and speedup < MIN_BINARY_SPEEDUP:
            print(f"FAIL: binary speedup {speedup}x below the "
                  f"{MIN_BINARY_SPEEDUP}x floor at batch={headline_batch}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
