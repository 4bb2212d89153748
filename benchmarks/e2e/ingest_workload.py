"""Ingest workloads: device release → wire → guards → fold → estimate.

The system under test is the product's own entry point, ``python -m
repro serve``, in a fresh subprocess.  This process is the fleet of
devices and the load generator: it privatizes the reports during
set-up, pre-encodes them for the workload's wire, and drives two phases
on at most two connections and two threads.

* **Closed loop** — a fixed amount of work (whole epochs of the
  population), ``window`` requests in flight on one connection.  Busy
  replies are backpressure: the request is sent again.  Throughput runs
  from the first send until a ``snapshot`` shows every admitted report
  folded, so the fold backlog counts.  With ``snapshot_reader`` a second
  connection reads ``snapshot`` on a fixed period meanwhile.
* **Open loop** — requests sent on a fixed schedule at a fixed rate,
  regardless of replies (a receiver thread reads them).  Each latency
  runs from the request's *scheduled* send, so generator lateness,
  stalls and busy resends count; blocked or failed requests count as
  +inf.

After the SUT has stopped, the closed-loop request stream is replayed
in-process through the same public calls the service makes — decode,
each guard, commit, fold, snapshot, summarize — with a span around each
when traced.  The replay's snapshot must equal the socket-fed one bit
for bit, and its ledger must charge every device exactly its reports.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from _harness import (
    NullRecorder,
    SutProcess,
    TooFewSamples,
    gc_paused,
    record_check,
    tail_percentile,
)
from repro.aggregation import AggregationServer
from repro.errors import ReproError
from repro.mechanisms import SensorSpec, make_mechanism
from repro.rng import audited_generator
from repro.rng.codebook import codebook_cache
from repro.rng.urng import SplitStreamSource
from repro.runtime import CounterSink, ReleasePipeline
from repro.service import ChainOutcome, IngestClient, Verdict, default_chain
from repro.service.protocol import (
    decode_binary_frame,
    decode_line,
    encode,
    encode_binary_submit,
    is_columnar,
)

SENSOR = SensorSpec(0.0, 50.0)
EPSILON = 2.0
#: Thresholding at ε charges 2ε per report.
CLAIMED_LOSS = 4.0
#: Stand-in epoch encoded into each template request, replaced per send.
_SENTINEL_EPOCH = 7_340_033_901
#: Snapshot reads a closed loop with a reader must collect: its p90
#: needs 101 reads for ten to lie beyond it.
MIN_SNAPSHOTS = 120
#: Share of a run given to the closed loop.  Throughput is the noisiest
#: metric on a shared host, so it gets the larger share; the open loop
#: keeps enough requests for ten beyond its p99.
CLOSED_SHARE = 0.6


@dataclasses.dataclass(frozen=True)
class IngestSpec:
    """One ingest traffic mix."""

    name: str
    wire: str
    devices: int
    batch: int
    budget_epochs: Optional[int]
    """``device_budget`` in epochs of claimed loss; ``None`` = no budget."""
    closed_reports_per_s: float
    """Nominal closed-loop rate on the reference host; sizes the
    fixed-work closed loop to ``CLOSED_SHARE`` of ``--seconds``."""
    open_reports_per_s: float
    """Open-loop offered load (a quarter to a third of capacity)."""
    snapshot_reader: bool
    window: int = 16
    templates: int = 8
    snapshot_period_s: float = 0.025

    kind = "ingest"

    @property
    def device_budget(self) -> Optional[float]:
        if self.budget_epochs is None:
            return None
        return self.budget_epochs * CLAIMED_LOSS

    @property
    def batches_per_epoch(self) -> int:
        return self.devices // self.batch

    def phases(self, seconds: float) -> Tuple[int, int]:
        """``(closed-loop epochs, open-loop requests)`` for a run length."""
        closed_s = CLOSED_SHARE * seconds
        closed = max(2, round(closed_s * self.closed_reports_per_s / self.devices))
        open_requests = int((seconds - closed_s) * self.open_reports_per_s / self.batch)
        return closed, open_requests


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
class IngestInputs:
    """Pre-encoded requests for every (epoch, batch) of the stream.

    ``templates`` epochs are generated — each a seeded permutation of the
    population with its own privatized values — and epoch ``e`` reuses
    template ``e % templates`` with its epoch field rewritten, so set-up
    cost and memory do not grow with the run.
    """

    def __init__(self, spec: IngestSpec, seed: int, rec) -> None:
        self.spec = spec
        gen = audited_generator(seed)
        self.ids = [f"d{i:06d}" for i in range(spec.devices)]
        id_column = np.asarray([i.encode("ascii") for i in self.ids], dtype="S7")
        counter = CounterSink()
        with rec.span("rng.warmup"):
            codebook_cache().clear()
            mechanism = make_mechanism(
                "thresholding",
                SENSOR,
                EPSILON,
                input_bits=14,
                source=SplitStreamSource(np.random.SeedSequence([seed, 1])),
                pipeline=ReleasePipeline(sinks=[counter]),
            )
            mechanism.rng.kernel  # resolves (builds) the codebook
        if mechanism.claimed_loss_bound != CLAIMED_LOSS:
            raise RuntimeError("thresholding no longer charges 2ε per report")
        self.counter = counter
        self.heads: List[List[bytes]] = []
        self.tails: List[List[bytes]] = []
        self.orders: List[np.ndarray] = []
        self.values: List[np.ndarray] = []
        for _ in range(spec.templates):
            truth = gen.uniform(SENSOR.m, SENSOR.M, size=spec.devices)
            order = gen.permutation(spec.devices)
            with rec.span("mechanisms.release"):
                values = np.asarray(mechanism.release(truth[order]).values, dtype=float)
            self.orders.append(order)
            self.values.append(values)
            heads, tails = [], []
            with rec.span("service.protocol.encode"):
                for b in range(spec.batches_per_epoch):
                    sl = slice(b * spec.batch, (b + 1) * spec.batch)
                    head, tail = self._template(id_column[order[sl]], values[sl])
                    heads.append(head)
                    tails.append(tail)
            self.heads.append(heads)
            self.tails.append(tails)
        self.released = spec.templates * spec.devices

    def _template(self, ids: np.ndarray, values: np.ndarray) -> Tuple[bytes, bytes]:
        if self.spec.wire == "binary":
            frame = encode_binary_submit(_SENTINEL_EPOCH, ids, values, CLAIMED_LOSS)
            marker = struct.pack("<Q", _SENTINEL_EPOCH)
        else:
            frame = encode(
                {
                    "op": "submit",
                    "epoch": _SENTINEL_EPOCH,
                    "device_ids": [i.decode("ascii") for i in ids.tolist()],
                    "values": [float(v) for v in values],
                    "claimed_loss": CLAIMED_LOSS,
                }
            )
            marker = b'"epoch": %d' % _SENTINEL_EPOCH
        if frame.count(marker) != 1:
            raise RuntimeError("epoch marker is not unique in the template request")
        head, tail = frame.split(marker)
        if self.spec.wire == "jsonl":
            head += b'"epoch": '
        return head, tail

    def payload(self, k: int) -> bytes:
        """The bytes of request ``k`` of the stream."""
        epoch, b = divmod(k, self.spec.batches_per_epoch)
        t = epoch % self.spec.templates
        field = struct.pack("<Q", epoch) if self.spec.wire == "binary" else b"%d" % epoch
        return self.heads[t][b] + field + self.tails[t][b]

    def request(self, k: int) -> Dict[str, object]:
        """Request ``k`` as the guards admit it, without decoding it."""
        epoch, b = divmod(k, self.spec.batches_per_epoch)
        t = epoch % self.spec.templates
        sl = slice(b * self.spec.batch, (b + 1) * self.spec.batch)
        return {
            "op": "submit",
            "epoch": epoch,
            "device_ids": [self.ids[i] for i in self.orders[t][sl]],
            "values": self.values[t][sl],
            "claimed_loss": CLAIMED_LOSS,
        }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------
class Session:
    """A started SUT, its connections, and the generated inputs."""

    def __init__(self, spec: IngestSpec, seed: int, rec, sut_cpus: Set[int]) -> None:
        argv = ["-m", "repro", "serve", "--port", "0", "--allow-shutdown"]
        if spec.device_budget is not None:
            argv += ["--device-budget", repr(spec.device_budget)]
        self.spec = spec
        self.sut = SutProcess(argv, f"{spec.name}-sut.log")
        self.client: Optional[IngestClient] = None
        self.reader: Optional[IngestClient] = None
        try:
            # Its threads inherit the mask; it has only its main thread yet.
            os.sched_setaffinity(self.sut.proc.pid, sut_cpus)
            # Inputs are generated while the SUT process starts up.
            self.inputs = IngestInputs(spec, seed, rec)
            line = self.sut.readline(timeout=60.0)
            if not line.startswith("listening on "):
                raise RuntimeError(f"unexpected SUT banner {line!r}")
            host, _, port = line.split()[2].rpartition(":")
            self.client = IngestClient(host, int(port), wire=spec.wire)
            if spec.snapshot_reader:
                self.reader = IngestClient(host, int(port))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Shut the service down (it drains), close connections, reap it."""
        stopping = False
        try:
            if self.client is not None and self.sut.proc.poll() is None:
                stopping = self.client.shutdown().get("status") == "ok"
        except (OSError, ValueError, ReproError):
            pass  # a service that cannot take the shutdown op is killed below
        finally:
            for client in (self.reader, self.client):
                if client is not None:
                    client.close()
            self.sut.close(timeout=30.0 if stopping else 1.0)


def _folded(snapshot: Dict[str, object]) -> int:
    return sum(e["count"] for e in snapshot["epochs"].values())


def _wait_folded(client: IngestClient, expected: int, timeout: float = 60.0) -> Dict:
    deadline = time.perf_counter() + timeout
    while True:
        snap = client.snapshot()["snapshot"]
        if _folded(snap) >= expected or time.perf_counter() > deadline:
            return snap


# ---------------------------------------------------------------------------
# Load phases
# ---------------------------------------------------------------------------
def _snapshot_reader(client, period_s, stop, samples, errors) -> None:
    due = time.perf_counter()
    try:
        while not stop.is_set():
            t0 = time.perf_counter()
            reply = client.snapshot()
            samples.append(time.perf_counter() - t0)
            if reply.get("status") != "ok":
                errors.append(reply)
            due += period_s
            stop.wait(max(0.0, due - time.perf_counter()))
    except Exception as exc:  # reported as a failed check by the caller
        errors.append(repr(exc))


def closed_loop(session: Session, epochs: int) -> Dict[str, object]:
    """Closed loop over whole epochs: ``window`` requests in flight, busy resent.

    With a snapshot reader, whole epochs are added past ``epochs`` (up
    to four times as many) until the reader holds ``MIN_SNAPSHOTS``
    reads, so a faster service cannot leave its percentile unsupported.
    """
    spec, client, inputs = session.spec, session.client, session.inputs
    per_epoch = spec.batches_per_epoch
    most = 4 * epochs
    stop = threading.Event()
    snapshot_s: List[float] = []
    reader_errors: List[object] = []
    reader = None
    if session.reader is not None:
        reader = threading.Thread(
            target=_snapshot_reader,
            args=(session.reader, spec.snapshot_period_s, stop, snapshot_s, reader_errors),
        )
    admitted: List[Tuple[int, int]] = []
    statuses: Dict[str, int] = {}
    reports = sent = 0
    cpu0 = session.sut.stats.cpu_s()
    bytes0 = client.bytes_sent
    pending = deque(range(epochs * per_epoch))
    in_flight: deque = deque()
    if reader is not None:
        reader.start()
    try:
        t0 = time.perf_counter()
        while True:
            if (not pending and reader is not None and reader.is_alive()
                    and len(snapshot_s) < MIN_SNAPSHOTS and epochs < most):
                pending.extend(range(epochs * per_epoch, (epochs + 1) * per_epoch))
                epochs += 1
            if not (pending or in_flight):
                break
            while pending and len(in_flight) < spec.window:
                k = pending.popleft()
                client.send_raw(inputs.payload(k))
                in_flight.append(k)
                sent += 1
            k = in_flight.popleft()
            reply = client.read_reply()
            status = reply.get("status")
            statuses[status] = statuses.get(status, 0) + 1
            if status == "busy":
                pending.append(k)
            elif status == "admitted":
                admitted.append((reply["seq"], k))
                reports += reply["n_reports"]
        request_bytes = client.bytes_sent - bytes0
        snapshot = _wait_folded(client, reports)
        wall = time.perf_counter() - t0
    finally:
        stop.set()
        if reader is not None:
            reader.join(timeout=30.0)
    cpu = session.sut.stats.cpu_s() - cpu0
    return {
        "epochs": epochs,
        "requests": epochs * per_epoch,
        "sent": sent,
        "admitted_order": [k for _, k in sorted(admitted)],
        "reports": reports,
        "statuses": statuses,
        "wall_s": wall,
        "cpu_s": cpu,
        "request_bytes": request_bytes,
        "snapshot": snapshot,
        "snapshot_s": snapshot_s,
        "reader_errors": reader_errors,
    }


def open_loop(session: Session, first: int, n_requests: int) -> Dict[str, object]:
    """Fixed-rate open loop from request ``first``.

    A busy reply is backpressure here too: the sender resends the
    request before its next scheduled send, and the request's latency
    still runs from its first scheduled send.
    """
    spec, client, inputs = session.spec, session.client, session.inputs
    interval = spec.batch / spec.open_reports_per_s
    latency = [0.0] * n_requests
    status = [""] * n_requests
    reports = [0] * n_requests
    late = [0.0] * n_requests
    sent_order: deque = deque()  # request index of every send, in order
    retry: deque = deque()
    busy = [0]
    failure: List[BaseException] = []
    start = time.perf_counter() + 0.05

    def receive() -> None:
        try:
            answered = 0
            while answered < n_requests:
                reply = client.read_reply()
                i = sent_order.popleft()
                if reply.get("status") == "busy":
                    busy[0] += 1
                    retry.append(i)
                    continue
                latency[i] = time.perf_counter() - (start + i * interval)
                status[i] = reply.get("status", "")
                reports[i] = reply.get("n_reports", 0)
                answered += 1
        except BaseException as exc:
            failure.append(exc)

    def send(i: int) -> None:
        sent_order.append(i)
        client.send_raw(inputs.payload(first + i))

    receiver = threading.Thread(target=receive)
    receiver.start()
    try:
        for i in range(n_requests):
            while retry:
                send(retry.popleft())
            due = start + i * interval
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            late[i] = time.perf_counter() - due
            send(i)
        while receiver.is_alive() and not failure:
            if retry:
                send(retry.popleft())
            else:
                receiver.join(timeout=interval)
    finally:
        receiver.join(timeout=120.0)
    if failure:
        raise failure[0]
    if receiver.is_alive():
        raise RuntimeError("open-loop receiver did not finish")
    admitted = [lat for lat, st in zip(latency, status) if st == "admitted"]
    return {
        "requests": n_requests,
        "admitted_latency_s": admitted,
        "refused": n_requests - len(admitted),
        "busy": busy[0],
        "reports": sum(r for r, st in zip(reports, status) if st == "admitted"),
        "statuses": {s: status.count(s) for s in set(status)},
        "late_s": late,
    }


# ---------------------------------------------------------------------------
# In-process replay
# ---------------------------------------------------------------------------
_GUARD_STAGE = {
    "schema": "service.guards.schema",
    "epoch-budget": "service.guards.epoch_budget",
    "rate-limit": "service.guards.rate_limit",
}


def _fold(request: Dict[str, object]):
    """The whole-batch fold the service builds for one admitted submit."""
    epoch, loss, ids = request["epoch"], request["claimed_loss"], request["device_ids"]
    if is_columnar(request):
        values = request["values"]
        return lambda server: server.submit_array(
            epoch, values, loss, device_ids=ids, donate=True
        )
    values = np.asarray(request["values"], dtype=float)
    return lambda server: server.submit_array(epoch, values, loss, device_ids=ids)


def replay(spec: IngestSpec, inputs: IngestInputs, order: Sequence[int], rec) -> Dict:
    """Replay requests ``order`` in-process, in the service's fold order.

    Traced, each request goes through decode → each guard → commit →
    fold, and each call becomes a span.  The loop only stamps the clock
    around the calls; the spans are built from the stamps once the
    traced interval has closed, so recording adds little time to it.
    Untraced, only the folds run: the replies already showed every
    request admitted unchanged, and the fold state is what the
    bit-identity check compares.
    """
    server = AggregationServer(streaming=True)
    handle = server.ingest_handle()
    chain = default_chain(device_budget=spec.device_budget)
    refused: List[str] = []
    if not rec.enabled:
        for k in order:
            if handle.submit_many([_fold(inputs.request(k))])[0] is not None:
                refused.append(f"request {k}: fold failed")
        return {"server": server, "snapshot": handle.snapshot(), "refused": refused}

    binary = spec.wire == "binary"
    decode = (lambda raw: decode_binary_frame(raw[4:])) if binary else decode_line
    checks = [g.check_array if binary else g.check for g in chain.guards]
    stages = (["service.protocol.decode"]
              + [_GUARD_STAGE[g.name] for g in chain.guards]
              + ["service.guards.commit", "aggregation.fold"])
    # Built before the traced interval: the bytes stand for a received
    # frame, and assembling them is load-generator work.
    payloads = [inputs.payload(k) for k in order]
    clock = time.perf_counter_ns
    stamps: List[int] = []
    stamp = stamps.append
    root = rec.begin("replay")
    for k, raw in zip(order, payloads):
        stamp(clock())
        request = decode(raw)
        stamp(clock())
        decisions = []
        clean = True
        for check in checks:
            stamp(clock())
            decision = check(request)
            stamp(clock())
            decisions.append(decision)
            clean = clean and decision.verdict is Verdict.ALLOW
            if decision.request is not None:
                request = decision.request
        stamp(clock())
        ChainOutcome(
            verdict="admitted", guard="chain", reason="", request=request,
            decisions=tuple(decisions),
        ).commit()
        stamp(clock())
        stamp(clock())
        errors = handle.submit_many([_fold(request)])
        stamp(clock())
        if not clean or errors[0] is not None:
            refused.append(f"request {k}: {[d.verdict.value for d in decisions]}, {errors}")
    i = rec.begin("aggregation.snapshot")
    snapshot = handle.snapshot()
    rec.end(i)
    estimate_s = []
    for epoch in server.epochs:
        i = rec.begin("queries.estimate")
        t0 = time.perf_counter()
        server.summarize(epoch)
        estimate_s.append(time.perf_counter() - t0)
        rec.end(i)
    rec.end(root)
    per_request = 2 * len(stages)
    for n, k in enumerate(order):
        base = n * per_request
        for j, stage in enumerate(stages):
            rec.add(stage, stamps[base + 2 * j], stamps[base + 2 * j + 1], root, k)
    return {
        "server": server,
        "snapshot": snapshot,
        "refused": refused,
        "root": root,
        "estimate_s": estimate_s,
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
def run(spec: IngestSpec, seed: int, seconds: float, rec, setups: int) -> Dict:
    """Set up ``setups`` times, drive both phases, replay, check."""
    closed_epochs, open_requests = spec.phases(seconds)
    # The service gets a core of its own and the load generator the rest,
    # as if on separate machines.
    cpus = sorted(os.sched_getaffinity(0))
    sut_cpus = {cpus[-1]}
    if len(cpus) > 1:
        os.sched_setaffinity(0, set(cpus[:-1]))
    setup_s: List[float] = []
    session: Optional[Session] = None
    for attempt in range(setups):
        last = attempt == setups - 1
        t0 = time.perf_counter()
        candidate = Session(spec, seed, rec if last else NullRecorder(), sut_cpus)
        setup_s.append(time.perf_counter() - t0)
        if last:
            session = candidate
        else:
            candidate.close()
    assert session is not None
    try:
        cpu0 = time.process_time()
        with gc_paused():
            t0 = time.perf_counter()
            closed = closed_loop(session, closed_epochs)
            opened = open_loop(session, closed["requests"], open_requests)
            load_wall = time.perf_counter() - t0
        measured = {
            "affinity": {"sut": sorted(sut_cpus), "loadgen": sorted(os.sched_getaffinity(0))},
            "setup_s": setup_s,
            "closed": closed,
            "opened": opened,
            "loadgen_cpu_frac": (time.process_time() - cpu0) / load_wall,
            "final": _wait_folded(session.client, closed["reports"] + opened["reports"]),
            "metrics": session.client.metrics()["metrics"],
            "peak_rss_mb": session.sut.stats.peak_rss_mb(),
        }
    finally:
        session.close()

    replayed = replay(spec, session.inputs, closed["admitted_order"], rec)
    return _report(spec, session.inputs, measured, replayed, rec)


def _report(spec: IngestSpec, inputs: IngestInputs, measured: Dict, replayed: Dict,
            rec) -> Dict:
    closed, opened, metrics = measured["closed"], measured["opened"], measured["metrics"]
    final, closed_epochs = measured["final"], closed["epochs"]
    checks: Dict[str, Dict] = {}
    e2e: Dict[str, Optional[float]] = {}
    layers: Dict[str, float] = {}

    blocked = sum(
        phase["statuses"].get(s, 0)
        for phase in (closed, opened) for s in ("blocked", "error")
    )
    internal = metrics.get("internal_errors") or 0
    attempted = closed["sent"] + opened["requests"] + opened["busy"]
    failed = blocked + internal
    record_check(checks, "no_blocked_or_errors", blocked == 0 and internal == 0,
                 f"{blocked} blocked/error replies, {internal} internal errors")
    record_check(checks, "all_admitted_folded",
                 _folded(final) == closed["reports"] + opened["reports"],
                 f"{_folded(final)} folded of {closed['reports'] + opened['reports']}")
    record_check(checks, "replay_clean", not replayed["refused"],
                 "; ".join(replayed["refused"][:3]))
    socket_snap = closed["snapshot"]
    replay_snap = json.loads(json.dumps(replayed["snapshot"]))
    record_check(checks, "snapshot_bit_identical", socket_snap == replay_snap,
                 "socket-fed closed-loop snapshot vs in-process replay")
    server = replayed["server"]
    expected = closed_epochs * CLAIMED_LOSS
    wrong = [d for d in inputs.ids if server.worst_case_disclosure(d) != expected]
    over = spec.device_budget is not None and expected > spec.device_budget
    record_check(checks, "disclosure_ledger", not wrong and not over,
                 f"{len(wrong)} devices off {expected:g}; budget {spec.device_budget}")
    if spec.snapshot_reader:
        record_check(checks, "snapshot_reader", not closed["reader_errors"],
                     "; ".join(map(str, closed["reader_errors"][:3])))

    latencies = opened["admitted_latency_s"]
    e2e["setup_s"] = float(np.median(measured["setup_s"]))
    e2e["reports_per_s"] = closed["reports"] / closed["wall_s"]
    e2e["peak_rss_mb"] = measured["peak_rss_mb"]
    e2e["wire_bytes_per_report"] = closed["request_bytes"] / closed["reports"]
    e2e["failed_frac"] = failed / attempted
    # The tails repeat too poorly on a shared host to gate a change, so
    # they are per-layer metrics of the measuring client.
    percentiles = [
        (e2e, "admit_p50_ms", 50, latencies, opened["refused"]),
        (layers, "loadgen.admit_p99_ms", 99, latencies, opened["refused"]),
    ]
    if spec.snapshot_reader:
        percentiles.append((layers, "loadgen.snapshot_p90_ms", 90, closed["snapshot_s"], 0))
    for target, name, q, samples, refused in percentiles:
        try:
            target[name] = tail_percentile(samples, q, refused=refused) * 1e3
            record_check(checks, f"{name}_supported", True,
                         f"{len(samples) + refused} samples")
        except TooFewSamples as exc:
            target[name] = None
            record_check(checks, f"{name}_supported", False, str(exc))

    requests = len(closed["admitted_order"])
    kreports = closed["reports"] / 1e3
    layers["aggregation.devices_tracked"] = socket_snap["n_devices_tracked"]
    layers["service.server.admit_p50_us"] = metrics.get("latency_p50_us")
    layers["service.server.admit_p99_us"] = metrics.get("latency_p99_us")
    layers["service.server.max_queue_depth"] = metrics.get("max_queue_depth")
    layers["service.server.busy_frac"] = (
        closed["statuses"].get("busy", 0) + opened["busy"]) / attempted
    layers["sut.cpu_s_per_mreport"] = closed["cpu_s"] / (closed["reports"] / 1e6)
    layers["loadgen.cpu_frac"] = measured["loadgen_cpu_frac"]
    try:
        layers["loadgen.late_p99_ms"] = tail_percentile(opened["late_s"], 99) * 1e3
    except TooFewSamples:
        layers["loadgen.late_p99_ms"] = None
    counter = inputs.counter
    layers["runtime.draws_per_report"] = counter.n_draws / counter.n_samples
    stages = None
    if rec.enabled:
        layers["queries.estimate_ms"] = float(np.median(replayed["estimate_s"])) * 1e3
        stages = rec.stage_table(replayed["root"])
        record_check(checks, "span_coverage", stages["coverage"] >= 0.95,
                     f"{stages['coverage']:.4f} of the traced replay is inside stage spans")
        per_request = {
            "service.protocol.decode_us": "service.protocol.decode",
            "service.guards.schema_us": "service.guards.schema",
            "service.guards.epoch_budget_us": "service.guards.epoch_budget",
            "service.guards.rate_limit_us": "service.guards.rate_limit",
            "service.guards.commit_us": "service.guards.commit",
            "aggregation.fold_us": "aggregation.fold",
        }
        self_ms = {row["stage"]: row["self_ms"] for row in stages["rows"]}
        for metric, stage in per_request.items():
            layers[metric] = self_ms[stage] * 1e3 / requests
        layers["aggregation.fold_us_per_kreport"] = self_ms["aggregation.fold"] * 1e3 / kreports
        layers["aggregation.snapshot_us"] = self_ms["aggregation.snapshot"] * 1e3
        busy_ms = sum(self_ms[stage] for stage in per_request.values())
        residual_ms = closed["wall_s"] * 1e3 - busy_ms
        layers["service.server.residual_us"] = residual_ms * 1e3 / requests
        layers["sut.residual_us_per_kreport"] = residual_ms * 1e3 / kreports
        release_ns = sum(rec.ends[i] - rec.starts[i] for i in rec.roots("mechanisms.release"))
        layers["mechanisms.release_us_per_kreport"] = release_ns / inputs.released
        warm = rec.roots("rng.warmup")
        layers["rng.warmup_s"] = (rec.ends[warm[-1]] - rec.starts[warm[-1]]) / 1e9
    return {
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "stages": stages,
        "setup_samples_s": measured["setup_s"],
        "affinity": measured["affinity"],
        "sizes": {
            "closed_epochs": closed_epochs,
            "closed_requests": closed["requests"],
            "open_requests": opened["requests"],
            "reports": closed["reports"] + opened["reports"],
        },
    }
