"""JSONL traces: round trip, exact budget-trajectory replay, trace CLI."""

import numpy as np
import pytest

from repro.cli import main
from repro.mechanisms import SensorSpec, make_mechanism
from repro.rng import NumpySource
from repro.runtime import (
    EVENT_SCHEMA_VERSION,
    JsonlSink,
    ReleasePipeline,
    SlotCharge,
    budget_columns,
    read_events_jsonl,
)


def device_trace(path, budget=3.0, n_reports=8):
    """Drive a budgeted device-style release loop, tracing to ``path``.

    Returns the remaining-budget column so tests can compare against
    ground truth.
    """
    pipe = ReleasePipeline()
    sink = pipe.add_sink(JsonlSink(path))
    mech = make_mechanism(
        "thresholding",
        SensorSpec(0.0, 8.0),
        0.5,
        input_bits=12,
        source=NumpySource(seed=11),
        pipeline=pipe,
    )
    remaining, cached = budget_columns(budget)
    for i in range(n_reports):
        mech.release(
            np.asarray([float(i % 7)]),
            accounting=SlotCharge(remaining, cached, mech.claimed_loss_bound),
            channel="dev-0",
        )
    sink.close()
    return remaining


class TestJsonlRoundTrip:
    def test_events_survive_write_read(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        device_trace(path)
        events = read_events_jsonl(path)
        assert len(events) == 8
        assert all(e.channel == "dev-0" for e in events)
        assert [e.seq for e in events] == list(range(1, 9))

    def test_schema_version_stamped(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        device_trace(path, n_reports=1)
        with open(path) as fh:
            row = json.loads(fh.readline())
        assert row["schema"] == EVENT_SCHEMA_VERSION


class TestBudgetTrajectoryReplay:
    def test_trace_reconstructs_exact_trajectory(self, tmp_path):
        """remaining[i] == remaining[i-1] - charged[i], exactly."""
        path = tmp_path / "trace.jsonl"
        live = device_trace(path, budget=3.0, n_reports=8)
        events = read_events_jsonl(path)
        remaining = 3.0
        for event in events:
            remaining -= event.charged
            assert event.budget_remaining == remaining
        # The replayed trajectory ends where the live budget column ended.
        assert live[0] == remaining

    def test_cache_replays_charge_nothing(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        device_trace(path, budget=3.0, n_reports=8)
        events = read_events_jsonl(path)
        # Loss bound is 1.0 (2·ε): three fresh releases, then replays.
        fresh = [e for e in events if e.cache_hits == 0]
        replays = [e for e in events if e.cache_hits > 0]
        assert len(fresh) == 3 and len(replays) == 5
        assert all(e.charged == 0.0 for e in replays)
        assert all(
            e.budget_remaining == fresh[-1].budget_remaining for e in replays
        )


class TestTraceCli:
    def test_selfcheck_passes(self, capsys):
        assert main(["trace", "--selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "all release paths OK" in out

    def test_selfcheck_writes_replayable_trace(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        assert main(["trace", "--selfcheck", "--jsonl", path]) == 0
        capsys.readouterr()
        assert main(["trace", "--replay", path]) == 0
        out = capsys.readouterr().out
        assert "0 with inconsistent arithmetic" in out

    def test_replay_respects_limit(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        device_trace(path, n_reports=8)
        assert main(["trace", "--replay", str(path), "--limit", "3"]) == 0
        assert "events          : 3" in capsys.readouterr().out

    def test_replay_single_budget_stream(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        device_trace(path, n_reports=8)
        assert main(["trace", "--replay", str(path)]) == 0
        assert "1 budget stream(s)" in capsys.readouterr().out

    def test_replay_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "--replay", str(path)]) == 1


class TestJsonlAppendMode:
    def test_append_extends_existing_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        device_trace(path, n_reports=3)
        first = read_events_jsonl(path)

        pipe = ReleasePipeline()
        sink = pipe.add_sink(JsonlSink(path, append=True))
        mech = make_mechanism(
            "thresholding",
            SensorSpec(0.0, 8.0),
            0.5,
            input_bits=12,
            source=NumpySource(seed=12),
            pipeline=pipe,
        )
        mech.release(np.asarray([1.0]), channel="shard-1")
        sink.close()

        merged = read_events_jsonl(path)
        assert len(merged) == len(first) + 1
        assert [e.to_dict() for e in merged[: len(first)]] == [
            e.to_dict() for e in first
        ]
        assert merged[-1].channel == "shard-1"

    def test_default_mode_truncates(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        device_trace(path, n_reports=3)
        device_trace(path, n_reports=2)
        assert len(read_events_jsonl(path)) == 2


class TestJsonlCrashSafety:
    """Kill-a-writer semantics: flush-on-write + tolerant tail reads."""

    def test_events_visible_on_disk_before_close(self, tmp_path):
        # Flush-on-write: a reader (or a post-mortem) sees every
        # completed event even while the sink is still open.
        path = tmp_path / "live.jsonl"
        pipe = ReleasePipeline()
        pipe.add_sink(JsonlSink(path))
        mech = make_mechanism(
            "thresholding",
            SensorSpec(0.0, 8.0),
            0.5,
            input_bits=12,
            source=NumpySource(seed=31),
            pipeline=pipe,
        )
        mech.release(np.asarray([1.0]))
        mech.release(np.asarray([2.0]))
        assert len(read_events_jsonl(path)) == 2  # sink never closed

    def test_close_is_idempotent_and_reported(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        assert not sink.closed
        sink.close()
        sink.close()
        assert sink.closed

    def test_emit_after_close_is_typed_error(self, tmp_path):
        from repro.errors import ConfigurationError
        from repro.runtime.events import ReleaseEvent

        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        event = ReleaseEvent(
            seq=1,
            mechanism="Thresholding",
            epsilon=0.5,
            claimed_loss=1.0,
            guard="threshold",
            batch=1,
            draws=1,
            resample_rounds=0,
            max_rounds_used=1,
        )
        with pytest.raises(ConfigurationError, match="closed"):
            sink.emit(event)

    def test_context_manager_closes(self, tmp_path):
        with JsonlSink(tmp_path / "t.jsonl") as sink:
            assert not sink.closed
        assert sink.closed

    def test_trailing_partial_line_tolerated_and_reported(
        self, tmp_path, caplog
    ):
        import logging

        path = tmp_path / "killed.jsonl"
        device_trace(path, n_reports=3)
        with open(path, "a") as fh:  # writer killed mid-event
            fh.write('{"schema": 1, "seq": 4, "mech')
        with caplog.at_level(logging.WARNING, logger="repro.runtime.sinks"):
            events = read_events_jsonl(path)
        assert len(events) == 3  # completed events all survive
        assert any("truncated trailing line" in r.message for r in caplog.records)

    def test_midfile_corruption_still_raises(self, tmp_path):
        import json

        path = tmp_path / "corrupt.jsonl"
        device_trace(path, n_reports=3)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1][:20] + "\n"  # damage a non-tail line
        path.write_text("".join(lines))
        with pytest.raises(json.JSONDecodeError):
            read_events_jsonl(path)


class TestCounterSinkMerge:
    @staticmethod
    def counted_trace(seed, n_reports):
        from repro.runtime import CounterSink

        pipe = ReleasePipeline()
        counter = pipe.add_sink(CounterSink())
        mech = make_mechanism(
            "thresholding",
            SensorSpec(0.0, 8.0),
            0.5,
            input_bits=12,
            source=NumpySource(seed=seed),
            pipeline=pipe,
        )
        remaining, cached = budget_columns(50.0)
        for i in range(n_reports):
            mech.release(
                np.asarray([float(i % 7)]),
                accounting=SlotCharge(remaining, cached, mech.claimed_loss_bound),
            )
        return counter

    def test_merge_equals_unsharded_totals(self):
        from repro.runtime import CounterSink

        a = self.counted_trace(seed=21, n_reports=3)
        b = self.counted_trace(seed=22, n_reports=5)
        merged = CounterSink().merge(a).merge(b)
        assert merged.n_events == a.n_events + b.n_events
        assert merged.n_samples == a.n_samples + b.n_samples
        assert merged.n_draws == a.n_draws + b.n_draws
        assert merged.charged_total == pytest.approx(
            a.charged_total + b.charged_total
        )
        assert merged.max_rounds_used == max(a.max_rounds_used, b.max_rounds_used)
        per = merged.per_mechanism["Thresholding"]
        assert per["samples"] == 8
        kern = merged.per_kernel["codebook"]
        assert kern["events"] == 8

    def test_merge_is_last_write_for_budget(self):
        from repro.runtime import CounterSink

        a = self.counted_trace(seed=21, n_reports=3)
        b = self.counted_trace(seed=22, n_reports=5)
        merged = CounterSink().merge(a).merge(b)
        assert merged.last_budget_remaining == b.last_budget_remaining

    def test_merge_returns_self_for_chaining(self):
        from repro.runtime import CounterSink

        total = CounterSink()
        assert total.merge(CounterSink()) is total
