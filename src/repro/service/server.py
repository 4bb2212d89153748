"""The asyncio socket ingestion service (JSONL + binary columnar wires).

One :class:`IngestionService` fronts one
:class:`~repro.aggregation.AggregationServer`.  The data path is:

1. **Read** one request per wire unit — a ``\\n``-terminated JSONL line
   (:func:`~repro.service.protocol.decode_line`, the default wire), or,
   after a ``hello`` negotiated the binary wire, one length-prefixed
   columnar frame (:func:`~repro.service.protocol.decode_binary_frame`)
   whose column buffers decode zero-copy into numpy arrays.  Both wires
   are strict at the boundary and share the 64 MiB fence.  Device ids
   become slots of one :class:`~repro.aggregation.device_index.DeviceIndex`
   at the schema guard, shared by the guards and the server's
   disclosure ledger, so no later layer probes a ``str``-keyed dict.
2. **Guard** submission requests through the pre-admission
   :class:`~repro.service.guards.GuardChain`; columnar requests take
   the vectorized ``check_array`` path — same trichotomy, no
   per-report Python objects.  The outcome is always *admitted*,
   *repaired with a recorded delta*, or *blocked with a reason*.
3. **Queue** admitted batches into a bounded queue.  A full queue is the
   backpressure signal: the request is answered ``busy`` immediately
   (explicit, retryable) instead of being buffered without bound.
   Stateful guard effects (rate counts, budget spend) are committed via
   :meth:`~repro.service.guards.ChainOutcome.commit` only *after* the
   batch lands in the queue — a ``busy`` refusal charges nothing, so
   retrying the same batch is admissible.
4. **Fold** — a single drain task pops whole batches, coalesces every
   batch already queued, and folds the burst through the thread-safe
   :class:`~repro.aggregation.IngestHandle` with **one**
   ``submit_many`` call: one lock acquisition and one executor hop per
   burst, still one ``submit_array``/``submit_counts`` per batch inside
   (batch boundaries and fold order are preserved — Chan's moment merge
   is order- but not splitting-invariant).  Columnar batches flow into
   ``submit_array(donate=True)`` with disclosure charged per report
   into the ledger's slot column.  Batches fold atomically and in
   admission order, which is what makes a socket-fed epoch
   bit-identical to the same batches submitted in-process on either
   wire — and why a killed service can never leave a *partially*
   ingested batch behind.

Every request produces exactly one :class:`~repro.runtime.IngestEvent`
through the same sink machinery as release events (the service's own
:class:`~repro.runtime.CounterSink` plus any extra sinks, e.g. a
:class:`~repro.runtime.JsonlSink` audit trail).

The service is deliberately **admission-acknowledging**: a ``submit``
response means the batch passed the guards and is queued, not that the
fold already ran.  The guards pre-validate everything the fold would
reject, so a fold failure is an *internal* error — counted, traced with
``guard="internal"``, and required to be zero by the CI smoke job.
"""

from __future__ import annotations

import asyncio
import dataclasses
import struct
import threading
import time
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from ..aggregation import AggregationServer
from ..errors import ConfigurationError, ReproError
from ..runtime import CounterSink, IngestEvent
from ..runtime.sinks import EventSink
from .guards import ChainOutcome, GuardChain, default_chain
from .protocol import (
    BINARY_WIRE_VERSION,
    KNOWN_OPS,
    MAX_FRAME_BYTES,
    WireError,
    decode_binary_frame,
    decode_line,
    encode,
    encode_cached,
    is_columnar,
    peer_label,
    response,
)

__all__ = ["ServiceConfig", "IngestionService", "ServiceHandle", "serve_in_thread"]


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Ingestion-service knobs (wire, guards, backpressure)."""

    host: str = "127.0.0.1"
    port: int = 0
    """0 lets the OS pick; the bound port is on ``service.address``."""

    queue_capacity: int = 64
    """Pending-batch bound: the explicit backpressure threshold.  When
    the drain side falls this many whole batches behind, submissions
    get a ``busy`` response instead of unbounded buffering."""

    max_line_bytes: int = 8 * 1024 * 1024
    """Per-connection stream-reader limit (also the practical request
    cap; the wire decoder's own 64 MiB bound is a second fence)."""

    # Guard-chain parameters (see :func:`~repro.service.guards.default_chain`).
    max_batch: int = 65536
    coerce: bool = True
    epoch_horizon: int = 1_000_000
    max_claimed_loss: float = 16.0
    device_budget: Optional[float] = None
    per_epoch_limit: int = 1

    allow_shutdown: bool = False
    """Honor the ``shutdown`` op.  Off by default — this endpoint meets
    untrusted peers, and remote shutdown is a denial-of-service door;
    enable it only for tests and supervised smoke runs."""

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be >= 1")
        if self.max_line_bytes < 1024:
            raise ConfigurationError("max_line_bytes must be >= 1024")


class IngestionService:
    """Asyncio ingestion front end over one aggregation server.

    Use :meth:`start`/:meth:`stop` from an event loop, or
    :func:`serve_in_thread` for a blocking caller (tests, benchmarks,
    the CLI client's self-serve mode).
    """

    def __init__(
        self,
        aggregation: AggregationServer,
        config: Optional[ServiceConfig] = None,
        chain: Optional[GuardChain] = None,
        extra_sinks: Iterable[EventSink] = (),
    ):
        self.config = config or ServiceConfig()
        self._handle = aggregation.ingest_handle()
        self.chain = chain if chain is not None else default_chain(
            max_batch=self.config.max_batch,
            coerce=self.config.coerce,
            epoch_horizon=self.config.epoch_horizon,
            max_claimed_loss=self.config.max_claimed_loss,
            device_budget=self.config.device_budget,
            per_epoch_limit=self.config.per_epoch_limit,
            device_index=aggregation.ledger.device_index,
        )
        #: Admission counters — the ``metrics`` endpoint's payload.
        self.counters = CounterSink()
        self._sinks: List[EventSink] = [self.counters, *extra_sinks]
        self._seq = 0
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._done: Optional[asyncio.Event] = None
        self._stopped = False
        #: ``(host, port)`` actually bound, set by :meth:`start`.
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the socket, start the drain task, return ``(host, port)``."""
        if self._server is not None:
            raise ConfigurationError("service already started")
        self._queue = asyncio.Queue(maxsize=self.config.queue_capacity)
        self._done = asyncio.Event()
        self._drain_task = asyncio.ensure_future(self._drain())
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_line_bytes,
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain queued batches, cancel tasks.

        ``drain=True`` folds everything already admitted before
        returning — an admitted batch is a promise.  ``drain=False``
        abandons the queue (whole batches only; a batch is never split).
        """
        if self._server is None or self._stopped:
            return
        # Setting the flag first quiesces *established* connections too:
        # _handle_line answers "blocked: service stopping" to further
        # submissions, so nothing new can enter the queue after the
        # drain below — every admitted batch really does get folded.
        self._stopped = True
        self._server.close()
        await self._server.wait_closed()
        if drain and self._queue is not None:
            await self._queue.join()
        if self._drain_task is not None:
            self._drain_task.cancel()
            try:
                await self._drain_task
            except asyncio.CancelledError:
                pass
        if self._done is not None:
            self._done.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` completes (remote shutdown included)."""
        if self._done is None:
            raise ConfigurationError("service not started")
        await self._done.wait()

    # ------------------------------------------------------------------
    # Event emission
    # ------------------------------------------------------------------
    def _emit(
        self,
        verdict: str,
        guard: str,
        reason: str,
        op: str,
        batch: int,
        epoch: Optional[int] = None,
        latency_us: float = 0.0,
        repaired_fields: int = 0,
        delta: Tuple[str, ...] = (),
        channel: Optional[str] = None,
    ) -> IngestEvent:
        event = IngestEvent(
            seq=self._seq,
            verdict=verdict,
            guard=guard,
            reason=reason,
            op=op,
            batch=batch,
            epoch=epoch,
            queue_depth=self._queue.qsize() if self._queue is not None else 0,
            latency_us=latency_us,
            repaired_fields=repaired_fields,
            delta=delta,
            channel=channel,
        )
        self._seq += 1
        for sink in self._sinks:
            sink.emit(event)
        return event

    # ------------------------------------------------------------------
    # Fold side (single consumer)
    # ------------------------------------------------------------------
    def _make_fold(
        self, outcome: ChainOutcome
    ) -> Callable[[AggregationServer], None]:
        """Build the whole-batch fold for one admitted outcome.

        The returned callable runs under the ``IngestHandle`` lock (via
        :meth:`~repro.aggregation.IngestHandle.submit_many`), so it
        calls the server directly rather than back through the handle.
        """
        req = outcome.request
        if req["op"] == "submit":
            if is_columnar(req):
                return _columnar_submit_fold(req)

            def fold(server: AggregationServer) -> None:
                # List→array conversion happens here, on the executor
                # thread, so a large JSONL batch never stalls the loop.
                server.submit_array(
                    req["epoch"],
                    np.asarray(req["values"], dtype=float),
                    req["claimed_loss"],
                    device_ids=req["device_ids"],
                )

            return fold

        def fold_counts(server: AggregationServer) -> None:
            server.submit_counts(
                req["epoch"],
                np.asarray(req["counts"], dtype=np.int64),
                req["n_reports"],
                req["claimed_loss"],
            )

        return fold_counts

    async def _drain(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_event_loop()
        while True:
            items = [await self._queue.get()]
            # Coalesce everything already admitted behind this batch:
            # the whole burst folds with one lock acquisition and one
            # executor hop, bounded by queue_capacity.  Each batch still
            # folds atomically and in admission order inside.
            while True:
                try:
                    items.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            folds = [self._make_fold(outcome) for outcome, _ in items]
            try:
                # Folds run on the default executor so a large burst
                # never stalls the reader side of the loop; the
                # IngestHandle lock keeps the burst atomic with respect
                # to snapshots served from the loop thread.
                errors = await loop.run_in_executor(
                    None, self._handle.submit_many, folds
                )
            except Exception as exc:  # pragma: no cover - defensive
                errors = [exc] * len(items)
            for (outcome, channel), error in zip(items, errors):
                if error is not None:  # service must survive a bad fold
                    self._emit(
                        verdict="error",
                        guard="internal",
                        reason=(
                            f"fold failed: {type(error).__name__}: {error}"
                        ),
                        op=outcome.request.get("op", "unknown"),
                        batch=_batch_size(outcome.request),
                        epoch=outcome.request.get("epoch"),
                        channel=channel,
                    )
                self._queue.task_done()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        channel = peer_label(writer.get_extra_info("peername"))
        wire = "jsonl"  # every connection starts JSONL; hello may switch
        try:
            while True:
                if wire == "jsonl":
                    try:
                        raw = await reader.readline()
                    except (ValueError, asyncio.LimitOverrunError):
                        # Oversized line: the stream cannot be resynced
                        # reliably, so answer once and drop the connection.
                        reason = "request line exceeds the stream limit"
                        self._emit(
                            verdict="blocked",
                            guard="wire",
                            reason=reason,
                            op="unknown",
                            batch=0,
                            channel=channel,
                        )
                        writer.write(
                            encode_cached("blocked", guard="wire", reason=reason)
                        )
                        await writer.drain()
                        break
                    if not raw:
                        break  # peer closed
                    if not raw.strip():
                        continue  # blank keep-alive line
                    reply, keep_open, wire = await self._handle_line(
                        raw, channel, wire
                    )
                else:
                    reply, keep_open, wire = await self._handle_frame(
                        reader, channel, wire
                    )
                    if reply is None:
                        break  # clean close or mid-frame disconnect
                writer.write(reply)
                await writer.drain()
                if not keep_open:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # peer vanished mid-reply; its events are already emitted
        finally:
            # No awaits here: a hard-killed service can reach this with
            # the loop already closed (or via GeneratorExit at GC), and
            # an await would turn teardown into a second failure.
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _handle_frame(
        self, reader: asyncio.StreamReader, channel: str, wire: str
    ) -> Tuple[Optional[bytes], bool, str]:
        """Read + decide one binary frame; (reply, keep_open, wire).

        ``reply=None`` means the connection ended without a frame to
        answer — a clean close between frames, or a mid-frame disconnect
        (which is emitted as a wire block and **never** partially folds:
        nothing reaches the guards until the whole payload is in).  A
        malformed-but-complete frame answers ``blocked`` and keeps the
        connection: the length prefix already resynced the stream.
        """
        try:
            prefix = await reader.readexactly(4)
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                self._emit(
                    verdict="blocked",
                    guard="wire",
                    reason="connection closed mid-frame (length prefix)",
                    op="unknown",
                    batch=0,
                    channel=channel,
                )
            return None, False, wire
        (length,) = struct.unpack("<I", prefix)
        if length > MAX_FRAME_BYTES:
            # Refuse to even read the payload — the fence exists so a
            # hostile prefix cannot balloon the reader — and drop the
            # connection, since skipping the unread payload would mean
            # consuming exactly the bytes we refused.
            reason = f"frame payload of {length} bytes exceeds {MAX_FRAME_BYTES}"
            self._emit(
                verdict="blocked",
                guard="wire",
                reason=reason,
                op="unknown",
                batch=0,
                channel=channel,
            )
            return (
                encode_cached("blocked", guard="wire", reason=reason),
                False,
                wire,
            )
        try:
            payload = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            self._emit(
                verdict="blocked",
                guard="wire",
                reason="connection closed mid-frame",
                op="unknown",
                batch=0,
                channel=channel,
            )
            return None, False, wire
        t0 = time.perf_counter()
        try:
            request = decode_binary_frame(payload)
        except WireError as exc:
            self._emit(
                verdict="blocked",
                guard="wire",
                reason=str(exc),
                op="unknown",
                batch=0,
                latency_us=(time.perf_counter() - t0) * 1e6,
                channel=channel,
            )
            return (
                encode_cached("blocked", guard="wire", reason=str(exc)),
                True,
                wire,
            )
        if is_columnar(request):
            # The hot path: columnar admission, no per-report objects.
            reply = self._decide_submission(
                request, request["op"], channel, t0, columnar=True
            )
            return reply, True, wire
        # OP_JSON escape frame: the ordinary op dispatch, same wire.
        return await self._dispatch(request, channel, t0, wire)

    async def _handle_line(
        self, raw: bytes, channel: str, wire: str
    ) -> Tuple[bytes, bool, str]:
        """Decide one JSONL request line; (reply, keep_open, wire)."""
        t0 = time.perf_counter()
        try:
            request = decode_line(raw)
        except WireError as exc:
            self._emit(
                verdict="blocked",
                guard="wire",
                reason=str(exc),
                op="unknown",
                batch=0,
                latency_us=(time.perf_counter() - t0) * 1e6,
                channel=channel,
            )
            return (
                encode_cached("blocked", guard="wire", reason=str(exc)),
                True,
                wire,
            )
        return await self._dispatch(request, channel, t0, wire)

    async def _dispatch(
        self, request: dict, channel: str, t0: float, wire: str
    ) -> Tuple[bytes, bool, str]:
        """Route one decoded request; returns (reply, keep_open, wire).

        The submission path is await-free from guard check through queue
        put and state commit, so admission decisions never interleave
        across connections mid-decision.
        """

        def _us() -> float:
            return (time.perf_counter() - t0) * 1e6

        op = request["op"]
        if op == "ping":
            self._emit(
                verdict="admitted", guard="wire", reason="", op="ping",
                batch=0, latency_us=_us(), channel=channel,
            )
            return encode_cached("ok", pong=True), True, wire
        if op == "hello":
            return self._negotiate(request, channel, _us, wire)
        if op == "snapshot":
            # On the executor like the folds: a snapshot waiting on the
            # IngestHandle lock behind a large fold must not stall the
            # event loop (and with it every other connection).
            snap = await asyncio.get_event_loop().run_in_executor(
                None, self._handle.snapshot
            )
            self._emit(
                verdict="admitted", guard="wire", reason="", op="snapshot",
                batch=0, latency_us=_us(), channel=channel,
            )
            return encode(response("ok", snapshot=snap)), True, wire
        if op == "metrics":
            self._emit(
                verdict="admitted", guard="wire", reason="", op="metrics",
                batch=0, latency_us=_us(), channel=channel,
            )
            return (
                encode(response("ok", metrics=self.counters.ingest_summary())),
                True,
                wire,
            )
        if op == "shutdown":
            if not self.config.allow_shutdown:
                self._emit(
                    verdict="blocked", guard="wire",
                    reason="shutdown disabled (allow_shutdown=False)",
                    op="shutdown", batch=0, latency_us=_us(), channel=channel,
                )
                return (
                    encode_cached(
                        "blocked",
                        guard="wire",
                        reason="shutdown disabled (allow_shutdown=False)",
                    ),
                    True,
                    wire,
                )
            self._emit(
                verdict="admitted", guard="wire", reason="", op="shutdown",
                batch=0, latency_us=_us(), channel=channel,
            )
            asyncio.ensure_future(self.stop(drain=True))
            return encode_cached("ok", stopping=True), False, wire
        if op not in KNOWN_OPS:
            reason = f"unknown op {op!r}"
            self._emit(
                verdict="blocked", guard="wire", reason=reason,
                op="unknown", batch=0, latency_us=_us(), channel=channel,
            )
            return (
                encode_cached("blocked", guard="wire", reason=reason),
                True,
                wire,
            )
        reply = self._decide_submission(request, op, channel, t0, columnar=False)
        return reply, True, wire

    def _negotiate(
        self, request: dict, channel: str, _us: Callable[[], float], wire: str
    ) -> Tuple[bytes, bool, str]:
        """Handle the ``hello`` op: per-connection wire selection."""
        requested = request.get("wire", "jsonl")
        version = request.get("version", BINARY_WIRE_VERSION)
        if requested == "binary" and version == BINARY_WIRE_VERSION:
            self._emit(
                verdict="admitted", guard="wire", reason="", op="hello",
                batch=0, latency_us=_us(), channel=channel,
            )
            return (
                encode_cached("ok", wire="binary", version=BINARY_WIRE_VERSION),
                True,
                "binary",
            )
        if requested == "jsonl":
            self._emit(
                verdict="admitted", guard="wire", reason="", op="hello",
                batch=0, latency_us=_us(), channel=channel,
            )
            return encode_cached("ok", wire="jsonl", version=1), True, "jsonl"
        reason = (
            f"unsupported wire negotiation {requested!r} v{version!r} "
            f"(serves jsonl v1, binary v{BINARY_WIRE_VERSION})"
        )
        self._emit(
            verdict="blocked", guard="wire", reason=reason,
            op="hello", batch=0, latency_us=_us(), channel=channel,
        )
        # The connection stays on its current wire — a failed
        # negotiation must not leave the two ends disagreeing.
        return encode_cached("blocked", guard="wire", reason=reason), True, wire

    def _decide_submission(
        self, request: dict, op: str, channel: str, t0: float, columnar: bool
    ) -> bytes:
        """Guard chain, then the bounded queue — shared by both wires.

        ``columnar=True`` routes through the vectorized ``check_array``
        guard path; verdicts, deltas, and commit effects are equivalent
        to the scalar path by the guards' contract (property-tested).
        """

        def _us() -> float:
            return (time.perf_counter() - t0) * 1e6

        if self._stopped:
            # stop() has begun: the queue is draining toward join() and
            # nothing may be enqueued behind it.  Terminal, not "busy" —
            # this endpoint is going away, retrying here is pointless.
            reason = "service stopping; batch not admitted"
            self._emit(
                verdict="blocked",
                guard="service",
                reason=reason,
                op=op,
                batch=_batch_size(request),
                latency_us=_us(),
                channel=channel,
            )
            return encode_cached("blocked", guard="service", reason=reason)
        outcome = (
            self.chain.check_array(request)
            if columnar
            else self.chain.check(request)
        )
        n = _batch_size(outcome.request if outcome.admitted else request)
        epoch = outcome.request.get("epoch") if outcome.admitted else None
        if not outcome.admitted:
            self._emit(
                verdict="blocked",
                guard=outcome.guard,
                reason=outcome.reason,
                op=op,
                batch=_batch_size(request),
                latency_us=_us(),
                channel=channel,
            )
            return encode_cached(
                "blocked", guard=outcome.guard, reason=outcome.reason
            )
        assert self._queue is not None
        try:
            self._queue.put_nowait((outcome, channel))
        except asyncio.QueueFull:
            event = self._emit(
                verdict="busy",
                guard="queue",
                reason=f"aggregation queue full ({self.config.queue_capacity})",
                op=op,
                batch=n,
                epoch=epoch,
                latency_us=_us(),
                channel=channel,
            )
            return encode_cached(
                "busy",
                queue_depth=event.queue_depth,
                reason="aggregation queue full; retry",
            )
        # The batch is queued — now (and only now) apply the guards'
        # state: rate counts and budget spend charge exactly what was
        # accepted, and a busy refusal above charged nothing.
        outcome.commit()
        event = self._emit(
            verdict=outcome.verdict,  # "admitted" or "repaired"
            guard=outcome.guard,
            reason=outcome.reason,
            op=op,
            batch=n,
            epoch=epoch,
            latency_us=_us(),
            repaired_fields=len(outcome.delta),
            delta=outcome.delta,
            channel=channel,
        )
        reply = response(
            outcome.verdict,
            seq=event.seq,
            queue_depth=event.queue_depth,
            n_reports=n,
        )
        if outcome.delta:
            reply["delta"] = list(outcome.delta)
        if outcome.warnings:
            reply["warnings"] = list(outcome.warnings)
        return encode(reply)


def _columnar_submit_fold(req: dict) -> Callable[[AggregationServer], None]:
    """Whole-batch fold for a binary columnar submit.

    The f8 values column is the read-only ``np.frombuffer`` view over
    the received frame — it goes into ``submit_array(donate=True)``
    without a copy (streaming folds consume it immediately; retain mode
    copies because it outlives the frame).  The ids are the schema
    guard's slots in the table the chain shares with the server's
    disclosure ledger, which charges them with one ``np.add.at`` in
    report order — the same totals on either wire.
    """

    def fold(server: AggregationServer) -> None:
        server.submit_array(
            req["epoch"],
            req["values"],
            req["claimed_loss"],
            device_ids=req["device_ids"],
            donate=True,
        )

    return fold


def _batch_size(request: dict) -> int:
    values = request.get("values")
    if isinstance(values, list):
        return len(values)
    if isinstance(values, np.ndarray):
        return int(values.size)
    n = request.get("n_reports")
    return n if isinstance(n, int) and not isinstance(n, bool) else 0


# ---------------------------------------------------------------------------
# Thread-hosted serving (blocking callers: tests, benchmarks, loadgen)
# ---------------------------------------------------------------------------
class ServiceHandle:
    """A running service on a background thread.

    ``address`` is the bound ``(host, port)``; :meth:`stop` shuts the
    service down (draining admitted batches) and joins the thread.
    Context-manager use guarantees the port is released on exit.
    """

    def __init__(
        self,
        service: IngestionService,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
        address: Tuple[str, int],
    ):
        self.service = service
        self._loop = loop
        self._thread = thread
        self.address = address

    def stop(self, timeout: float = 10.0) -> None:
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.stop(drain=True), self._loop
        )
        try:
            future.result(timeout=timeout)
            self._grace_tick(timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)

    def _grace_tick(self, timeout: float) -> None:
        # One extra loop turn so transport connection_lost callbacks run
        # before the loop closes (quiet teardown, not correctness).
        try:
            asyncio.run_coroutine_threadsafe(
                asyncio.sleep(0.01), self._loop
            ).result(timeout=timeout)
        except Exception:
            pass

    def kill(self, timeout: float = 10.0) -> None:
        """Hard stop: abandon the queue (whole batches), close the port.

        The crash-shaped shutdown used by the kill-the-server tests: no
        drain, no goodbye to peers.  Batches already folded stay folded;
        queued-but-unfolded batches are dropped *whole* — never split.
        """
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.stop(drain=False), self._loop
        )
        try:
            future.result(timeout=timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_thread(
    aggregation: AggregationServer,
    config: Optional[ServiceConfig] = None,
    chain: Optional[GuardChain] = None,
    extra_sinks: Iterable[EventSink] = (),
    start_timeout: float = 10.0,
) -> ServiceHandle:
    """Start an :class:`IngestionService` on a daemon thread; block until
    the socket is bound; return its :class:`ServiceHandle`."""
    service = IngestionService(
        aggregation, config=config, chain=chain, extra_sinks=extra_sinks
    )
    loop = asyncio.new_event_loop()
    started: "threading.Event" = threading.Event()
    failure: List[BaseException] = []

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(service.start())
        except BaseException as exc:  # surface bind errors to the caller
            failure.append(exc)
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-ingest", daemon=True)
    thread.start()
    if not started.wait(timeout=start_timeout):
        raise ReproError("ingestion service failed to start in time")
    if failure:
        raise failure[0]
    assert service.address is not None
    return ServiceHandle(service, loop, thread, service.address)
