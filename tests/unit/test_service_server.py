"""Ingestion service end-to-end over real sockets.

Covers the wire contract (ops, malformed lines), the admission verdicts
and their trace events, explicit BUSY backpressure under a gated
aggregation fold, the socket-vs-in-process bit-identity guarantee, and
the kill-the-server-mid-batch atomicity contract (a batch folds whole
or not at all — never partially).
"""

import asyncio
import gc
import json
import logging
import threading
import time

import numpy as np
import pytest

from repro.aggregation import AggregationServer
from repro.rng import audited_generator
from repro.runtime import IngestEvent, JsonlSink, RingBufferSink
from repro.runtime.sinks import read_events_jsonl
from repro.service import IngestClient, ServiceConfig, run_load
from repro.service.server import serve_in_thread


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def streaming_service():
    aggregation = AggregationServer(streaming=True)
    handle = serve_in_thread(
        aggregation, ServiceConfig(allow_shutdown=True)
    )
    try:
        yield aggregation, handle
    finally:
        handle.stop()


class TestWireOps:
    def test_ping(self, streaming_service):
        _, handle = streaming_service
        with IngestClient(*handle.address) as client:
            assert client.ping() == {"status": "ok", "pong": True}

    def test_snapshot_and_metrics(self, streaming_service):
        _, handle = streaming_service
        with IngestClient(*handle.address) as client:
            client.submit(0, ["a"], [4.5], 1.0)
            assert wait_until(
                lambda: client.snapshot()["snapshot"]["epochs"].get(
                    "0", {}
                ).get("count") == 1
            )
            metrics = client.metrics()["metrics"]
            assert metrics["reports_admitted"] == 1
            assert metrics["internal_errors"] == 0
            assert metrics["latency_p50_us"] is not None

    @pytest.mark.parametrize(
        "raw",
        [
            b"this is not json\n",
            b"[1, 2, 3]\n",
            b'{"no": "op"}\n',
            b'{"op": 7}\n',
            # An integer past the parser's digit limit: a ValueError
            # that is not a JSONDecodeError.
            pytest.param(
                b'{"op": "ping", "n": ' + b"1" * 5000 + b"}\n",
                id="int-past-digit-limit",
            ),
        ],
    )
    def test_malformed_line_blocked_at_wire(self, streaming_service, raw):
        _, handle = streaming_service
        with IngestClient(*handle.address) as client:
            client.send_raw(raw)
            reply = json.loads(client._reader.readline())
            assert reply["status"] == "blocked"
            assert reply["guard"] == "wire"
            # The connection survives a malformed line.
            assert client.ping()["status"] == "ok"

    def test_unknown_op_blocked(self, streaming_service):
        _, handle = streaming_service
        with IngestClient(*handle.address) as client:
            reply = client.request({"op": "exfiltrate"})
            assert reply["status"] == "blocked"
            assert "unknown op" in reply["reason"]

    def test_shutdown_disabled_by_default(self):
        aggregation = AggregationServer(streaming=True)
        handle = serve_in_thread(aggregation)  # allow_shutdown=False
        try:
            with IngestClient(*handle.address) as client:
                reply = client.shutdown()
                assert reply["status"] == "blocked"
                assert client.ping()["status"] == "ok"
        finally:
            handle.stop()


class TestAdmissionVerdicts:
    def test_admitted_batch_folds(self, streaming_service):
        aggregation, handle = streaming_service
        with IngestClient(*handle.address) as client:
            reply = client.submit(0, ["a", "b"], [1.5, 2.5], 1.0)
        assert reply["status"] == "admitted"
        assert reply["n_reports"] == 2
        assert wait_until(lambda: 0 in aggregation.epochs)
        assert aggregation.snapshot()["epochs"]["0"]["count"] == 2

    def test_wire_repair_recorded(self, streaming_service):
        aggregation, handle = streaming_service
        with IngestClient(*handle.address) as client:
            # Raw request so the client's own float() coercion doesn't
            # pre-repair the value string.
            reply = client.request(
                {"op": "submit", "epoch": 0, "device_ids": ["a"],
                 "values": ["3.25"], "claimed_loss": 1.0}
            )
            assert reply["status"] == "repaired"
            assert any("3.25" in entry for entry in reply["delta"])
            assert wait_until(lambda: 0 in aggregation.epochs)
            assert aggregation.snapshot()["epochs"]["0"]["mean"] == 3.25

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ({"values": [1.0, 10**400]}, "values[1] is not finite"),
            ({"values": [-(10**400), 1.0]}, "values[0] is not finite"),
            (
                {"claimed_loss": 10**400},
                f"claimed_loss must be a positive finite number, got {10**400!r}",
            ),
        ],
        ids=["value", "negative-value", "claimed-loss"],
    )
    def test_oversized_json_integers_blocked(self, fields, reason):
        # Regression: an integer past float range made float() raise out
        # of the guard chain, dropping the connection with no reply and
        # no event.
        events = RingBufferSink()
        aggregation = AggregationServer(streaming=True)
        handle = serve_in_thread(aggregation, extra_sinks=[events])
        request = {"op": "submit", "epoch": 0, "device_ids": ["a", "b"],
                   "values": [1.0, 2.0], "claimed_loss": 1.0}
        request.update(fields)
        try:
            with IngestClient(*handle.address) as client:
                reply = client.request(request)
                assert client.ping()["status"] == "ok"
        finally:
            handle.stop()
        assert reply == {"status": "blocked", "guard": "schema", "reason": reason}
        assert [(e.verdict, e.guard, e.reason) for e in events.events][0] == (
            "blocked", "schema", reason
        )
        assert aggregation.epochs == []

    def test_blocked_batch_never_reaches_the_server(self, streaming_service):
        aggregation, handle = streaming_service
        with IngestClient(*handle.address) as client:
            reply = client.submit(0, ["a"], [1.0], -5.0)
            assert reply["status"] == "blocked"
            assert reply["guard"] == "schema"
            assert client.ping()["status"] == "ok"  # fold had time to run
        assert aggregation.epochs == []

    def test_rate_limit_repair_over_the_wire(self, streaming_service):
        aggregation, handle = streaming_service
        with IngestClient(*handle.address) as client:
            assert client.submit(0, ["a"], [1.0], 1.0)["status"] == "admitted"
            reply = client.submit(0, ["a", "b"], [9.0, 2.0], 1.0)
            assert reply["status"] == "repaired"
            assert reply["n_reports"] == 1
        assert wait_until(
            lambda: aggregation.snapshot()["epochs"].get("0", {}).get("count")
            == 2
        )

    def test_counts_batch_over_the_wire(self, streaming_service):
        aggregation, handle = streaming_service
        with IngestClient(*handle.address) as client:
            reply = client.submit_counts(3, [5, 7, 2], 14, 1.0)
            assert reply["status"] == "admitted"
        assert wait_until(lambda: 3 in aggregation.categorical_epochs)
        counts, n = aggregation.category_counts(3)
        assert list(counts) == [5, 7, 2] and n == 14


def _line(**fields):
    return (json.dumps(fields, sort_keys=True) + "\n").encode()


# (service config, request lines, the exact reply line to each).  The
# replies pin status, reason, delta and warnings byte for byte.
_GOLDEN = {
    "numeric-string-value": (
        {},
        [_line(op="submit", epoch=0, device_ids=["a", "b"],
               values=["3.25", 2.0], claimed_loss=1.0)],
        [b'{"delta": ["values[0]: \'3.25\' -> 3.25"], "n_reports": 2, '
         b'"queue_depth": 1, "seq": 0, "status": "repaired"}\n'],
    ),
    "integral-float-epoch": (
        {},
        [_line(op="submit", epoch=3.0, device_ids=["a"], values=[1.5],
               claimed_loss=1.0)],
        [b'{"delta": ["epoch: 3.0 -> 3"], "n_reports": 1, '
         b'"queue_depth": 1, "seq": 0, "status": "repaired"}\n'],
    ),
    "unknown-field": (
        {},
        [_line(op="submit", epoch=0, device_ids=["a"], values=[1.5],
               claimed_loss=1.0, debug="x")],
        [b'{"delta": ["debug: <dropped unknown field>"], "n_reports": 1, '
         b'"queue_depth": 1, "seq": 0, "status": "repaired"}\n'],
    ),
    "strict-schema-blocks-coercible": (
        {"coerce": False},
        [_line(op="submit", epoch=0, device_ids=["a"], values=["3.25"],
               claimed_loss=1.0)],
        [b'{"guard": "schema", "reason": "values[0] must be a number, '
         b'got \'3.25\'", "status": "blocked"}\n'],
    ),
    "bool-value": (
        {},
        [_line(op="submit", epoch=0, device_ids=["a", "b"],
               values=[1.0, True], claimed_loss=1.0)],
        [b'{"guard": "schema", "reason": "values[1] must be a number, '
         b'got True", "status": "blocked"}\n'],
    ),
    "nan-value": (
        {},
        [_line(op="submit", epoch=0, device_ids=["a", "b"],
               values=[1.0, float("nan")], claimed_loss=1.0)],
        [b'{"guard": "schema", "reason": "values[1] is not finite", '
         b'"status": "blocked"}\n'],
    ),
    "rate-limit-duplicate-drop": (
        {},
        [_line(op="submit", epoch=0, device_ids=["a"], values=[1.0],
               claimed_loss=1.0),
         _line(op="submit", epoch=0, device_ids=["b", "a", "c"],
               values=[2.0, 9.0, 3.0], claimed_loss=1.0)],
        [b'{"n_reports": 1, "queue_depth": 1, "seq": 0, '
         b'"status": "admitted"}\n',
         b'{"delta": ["values[1]: <dropped: device \'a\' over 1/epoch rate '
         b'limit>"], "n_reports": 2, "queue_depth": 1, "seq": 1, '
         b'"status": "repaired"}\n'],
    ),
    "counts-batch-with-warning": (
        {},
        [_line(op="submit_counts", epoch=2, counts=[5, 7, 2], n_reports=14,
               claimed_loss=9.0)],
        [b'{"n_reports": 14, "queue_depth": 1, "seq": 0, '
         b'"status": "admitted", "warnings": ["epoch-budget: claimed_loss 9 '
         b'above warning level 8"]}\n'],
    ),
}


class TestGoldenReplies:
    @pytest.mark.parametrize("case", sorted(_GOLDEN))
    def test_jsonl_reply_bytes(self, case):
        config, lines, expected = _GOLDEN[case]
        handle = serve_in_thread(
            AggregationServer(streaming=True), ServiceConfig(**config)
        )
        try:
            with IngestClient(*handle.address) as client:
                replies = []
                for line in lines:
                    client.send_raw(line)
                    replies.append(client._reader.readline())
        finally:
            handle.stop()
        assert replies == expected


class TestIngestTrace:
    def test_every_decision_is_an_event(self, tmp_path):
        trace = tmp_path / "ingest.jsonl"
        aggregation = AggregationServer(streaming=True)
        sink = JsonlSink(trace)
        handle = serve_in_thread(aggregation, extra_sinks=[sink])
        try:
            with IngestClient(*handle.address) as client:
                client.submit(0, ["a"], [1.0], 1.0)
                client.submit(0, ["b"], [2.0], -1.0)  # blocked
                client.send_raw(b"garbage\n")
                client._reader.readline()
                client.ping()
        finally:
            handle.stop()
            sink.close()
        events = read_events_jsonl(trace)
        assert all(isinstance(e, IngestEvent) for e in events)
        verdicts = [e.verdict for e in events]
        assert verdicts.count("admitted") == 2  # submit + ping
        assert verdicts.count("blocked") == 2  # bad loss + wire garbage
        assert [e.seq for e in events] == sorted(e.seq for e in events)
        wire = [e for e in events if e.guard == "wire" and e.verdict == "blocked"]
        assert wire and wire[0].reason

    def test_counter_metrics_match_replies(self, streaming_service):
        _, handle = streaming_service
        service = handle.service
        with IngestClient(*handle.address) as client:
            for i in range(5):
                client.submit(i, ["a"], [float(i)], 1.0)
            client.submit(0, ["x"], [1.0], 99.0)  # blocked: loss cap 16
        summary = service.counters.ingest_summary()
        assert summary["reports_admitted"] == 5
        assert summary["reports_blocked"] == 1
        assert summary["per_guard_blocked"] == {"epoch-budget": 1}
        assert summary["internal_errors"] == 0


class _GatedServer(AggregationServer):
    """Aggregation server whose scalar fold blocks until released."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.gate = threading.Event()

    def submit_array(self, *args, **kwargs):
        self.gate.wait(timeout=30.0)
        super().submit_array(*args, **kwargs)


class TestBackpressure:
    def test_full_queue_answers_busy(self):
        aggregation = _GatedServer(streaming=True)
        handle = serve_in_thread(
            aggregation, ServiceConfig(queue_capacity=2)
        )
        try:
            with IngestClient(*handle.address) as client:
                replies = [
                    client.submit(0, [f"d{i}"], [1.0], 1.0) for i in range(5)
                ]
                statuses = [r["status"] for r in replies]
                assert "busy" in statuses  # the queue bound bit
                n_admitted = statuses.count("admitted")
                busy = next(r for r in replies if r["status"] == "busy")
                assert busy["queue_depth"] >= 2
                aggregation.gate.set()
                assert wait_until(
                    lambda: aggregation.snapshot()["epochs"]
                    .get("0", {})
                    .get("count") == n_admitted
                )
                # Backpressure is retryable: the refused batch goes
                # through once the drain side catches up.
                retry = client.submit(0, ["retry"], [1.0], 1.0)
                assert retry["status"] == "admitted"
        finally:
            handle.stop()

    def test_busy_refusal_charges_no_guard_state(self):
        # Regression: a busy answer used to charge the rate limiter and
        # budget for every device in the refused batch, so the contract
        # retry of the *same* batch came back "blocked" and the batch
        # was permanently lost under backpressure.
        aggregation = _GatedServer(streaming=True)
        handle = serve_in_thread(
            aggregation, ServiceConfig(queue_capacity=1)
        )
        try:
            with IngestClient(*handle.address) as client:
                busy_ids = None
                for i in range(20):
                    ids = [f"dev-{i}"]
                    if client.submit(0, ids, [1.0], 1.0)["status"] == "busy":
                        busy_ids = ids
                        break
                assert busy_ids is not None, "queue bound never hit"
                aggregation.gate.set()
                for _ in range(200):  # retry the same batch until drained
                    reply = client.submit(0, busy_ids, [1.0], 1.0)
                    if reply["status"] != "busy":
                        break
                    time.sleep(0.01)
                assert reply["status"] == "admitted"
        finally:
            aggregation.gate.set()
            handle.stop()


    def test_refused_requests_allocate_no_state(self):
        # Fail closed: blocked requests and busy refusals naming fresh
        # ids leave the slot table, every guard's state and the ledger
        # exactly as they were.
        aggregation = _GatedServer(streaming=True)
        handle = serve_in_thread(
            aggregation, ServiceConfig(queue_capacity=1, device_budget=2.0)
        )
        table = aggregation.ledger.device_index
        guards = {g.name: g for g in handle.service.chain.guards}
        rate, budget = guards["rate-limit"], guards["epoch-budget"]

        def state():
            return (
                len(table),
                budget.spend_items(),
                [(e, rate.epoch_counts(e)) for e in rate.tracked_epochs()],
                aggregation.snapshot()["n_devices_tracked"],
            )

        try:
            with IngestClient(*handle.address) as client:
                for i in range(20):  # fill the queue behind the gated fold
                    if client.submit(0, [f"dev-{i}"], [1.0], 1.0)["status"] == "busy":
                        break
                else:
                    pytest.fail("queue bound never hit")
                before = state()
                replies = [
                    client.submit(0, ["fresh-a", "fresh-b"], [1.0, 2.0], 1.0),
                    client.submit(0, ["dev-0", "fresh-c"], [1.0, 2.0], 1.0),
                    client.submit(1, ["fresh-d", "fresh-d"], [1.0, 2.0], 1.0),
                    client.submit(0, ["fresh-e"], [1.0], 3.0),
                    client.submit(0, ["fresh-f"], [1.0], 100.0),
                    client.request(
                        {"op": "submit", "epoch": 0, "device_ids": ["fresh-g"],
                         "values": ["x"], "claimed_loss": 1.0}
                    ),
                    client.submit(0, ["dev-0"], [1.0], 1.0),
                ]
                assert [r["status"] for r in replies] == ["busy"] * 3 + ["blocked"] * 4
                assert state() == before
        finally:
            aggregation.gate.set()
            handle.stop()


class TestStopContract:
    def test_stop_quiesces_live_connections_before_drain(self):
        # Regression: stop(drain=True) closed the *listening* socket but
        # kept serving established connections, which could enqueue new
        # batches after queue.join() — admitted, then silently dropped
        # by the drain-task cancel.  Once stop() begins, live
        # connections must get a terminal "service stopping" refusal.
        aggregation = _GatedServer(streaming=True)
        handle = serve_in_thread(
            aggregation, ServiceConfig(queue_capacity=8)
        )
        client = IngestClient(*handle.address)
        stopper = threading.Thread(target=handle.stop)
        try:
            assert client.submit(0, ["a"], [1.0], 1.0)["status"] == "admitted"
            stopper.start()  # blocks draining: the fold is gated
            assert wait_until(lambda: handle.service._stopped)
            reply = client.submit(0, ["b"], [2.0], 1.0)
            assert reply["status"] == "blocked"
            assert reply["guard"] == "service"
            assert "stopping" in reply["reason"]
        finally:
            client.close()
            aggregation.gate.set()
            stopper.join(timeout=10.0)
            handle.stop()
        assert not stopper.is_alive()
        # The admitted promise was folded; the refused batch never was.
        snap = aggregation.snapshot()
        assert snap["epochs"]["0"]["count"] == 1


class TestBitIdentity:
    def test_socket_epoch_bit_identical_to_in_process(self):
        # A fleet epoch's worth of float64 batches: what run_fleet ships
        # via submit_array, here round-tripped through JSON + TCP.
        rng = audited_generator(77)
        batches = [
            (epoch, rng.uniform(-4.0, 57.0, size=193))
            for epoch in range(3)
            for _ in range(4)
        ]
        in_process = AggregationServer(streaming=True)
        for b, (epoch, values) in enumerate(batches):
            in_process.submit_array(
                epoch,
                values,
                1.0,
                device_ids=[f"d{b}-{i}" for i in range(values.size)],
            )
        socket_fed = AggregationServer(streaming=True)
        handle = serve_in_thread(socket_fed)
        try:
            with IngestClient(*handle.address) as client:
                for b, (epoch, values) in enumerate(batches):
                    reply = client.submit(
                        epoch,
                        [f"d{b}-{i}" for i in range(values.size)],
                        [float(v) for v in values],
                        1.0,
                    )
                    assert reply["status"] == "admitted"
                assert wait_until(
                    lambda: client.snapshot()["snapshot"]["epochs"]
                    .get("2", {})
                    .get("count") == 4 * 193
                )
        finally:
            handle.stop()
        # Bit-for-bit: JSON doubles round-trip exactly and the folds ran
        # in the same order over the same chunks.
        assert socket_fed.snapshot() == in_process.snapshot()
        for epoch in range(3):
            assert socket_fed.worst_case_disclosure(
                f"d0-0"
            ) == in_process.worst_case_disclosure("d0-0")


class TestKillMidBatch:
    def test_partial_line_never_ingested(self):
        aggregation = AggregationServer(streaming=True)
        handle = serve_in_thread(aggregation)
        client = IngestClient(*handle.address)
        try:
            client.submit(0, ["a", "b"], [1.0, 2.0], 1.0)
            assert wait_until(
                lambda: aggregation.snapshot()["epochs"].get("0", {}).get(
                    "count"
                ) == 2
            )
            # A device dies mid-line: half a JSON object, no newline.
            client.send_raw(
                b'{"op": "submit", "epoch": 0, "device_ids": ["c"], "val'
            )
            time.sleep(0.1)
        finally:
            handle.kill()
            client.close()
        snap = aggregation.snapshot()
        assert snap["epochs"]["0"]["count"] == 2  # the whole first batch
        assert snap["n_devices_tracked"] == 2  # and nothing of the torn one

    def test_killed_service_folds_whole_batches_only(self):
        batch = 7
        aggregation = _GatedServer(streaming=True)
        handle = serve_in_thread(
            aggregation, ServiceConfig(queue_capacity=8)
        )
        client = IngestClient(*handle.address)
        try:
            for b in range(3):
                reply = client.submit(
                    0,
                    [f"d{b}-{i}" for i in range(batch)],
                    [float(i) for i in range(batch)],
                    1.0,
                )
                assert reply["status"] == "admitted"
        finally:
            # Kill with the first fold still gated and the rest queued.
            handle.kill()
            client.close()
        aggregation.gate.set()  # the in-flight executor fold may finish
        time.sleep(0.2)
        count = aggregation.snapshot()["epochs"].get("0", {}).get("count", 0)
        # Whole batches only: 0, 1, 2 or 3 folds — never a partial one.
        assert count % batch == 0
        assert 0 <= count <= 3 * batch

    @pytest.mark.parametrize("how", ["kill", "stop"])
    def test_shutdown_leaves_no_pending_task(self, caplog, how):
        aggregation = AggregationServer(streaming=True)
        handle = serve_in_thread(aggregation)
        client = IngestClient(*handle.address)
        try:
            # The connection's handler now waits for the next line.
            client.submit(0, ["a"], [1.0], 1.0)
        finally:
            getattr(handle, how)()
        loop = handle._loop
        try:
            assert asyncio.all_tasks(loop) == set()
        finally:
            client.close()
        del handle, loop
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            gc.collect()
        assert "Task was destroyed" not in caplog.text


class TestRunLoad:
    def test_load_report_accounts_every_report(self, streaming_service):
        aggregation, handle = streaming_service
        report = run_load(
            *handle.address, batches=20, batch_size=32, epochs=4, seed=9
        )
        assert report.reports_admitted == 20 * 32
        assert report.n_blocked == 0
        assert report.server_metrics["internal_errors"] == 0
        assert report.reports_per_s > 0
        assert report.latency_p99_us >= report.latency_p50_us
        assert wait_until(
            lambda: sum(
                aggregation.snapshot()["epochs"][str(e)]["count"]
                for e in aggregation.epochs
            ) == 20 * 32
        )

    def test_load_is_deterministic_in_seed(self):
        # Same seed, fresh service each run: identical admission outcome
        # and identical folded state (the wire bytes are replayable).
        snaps = []
        for _ in range(2):
            aggregation = AggregationServer(streaming=True)
            handle = serve_in_thread(aggregation)
            try:
                report = run_load(
                    *handle.address, batches=5, batch_size=8, epochs=2, seed=3
                )
                assert report.reports_admitted == 5 * 8
                assert wait_until(
                    lambda: sum(
                        aggregation.snapshot()["epochs"][str(e)]["count"]
                        for e in aggregation.epochs
                    ) == 5 * 8
                )
            finally:
                handle.stop()
            snaps.append(aggregation.snapshot())
        assert snaps[0] == snaps[1]
