"""Unit tests for the release pipeline core (repro.runtime)."""

import numpy as np
import pytest

from repro.errors import (
    BudgetExhaustedError,
    ConfigurationError,
    ResampleExhaustedError,
)
from repro.mechanisms import SensorSpec, make_mechanism
from repro.rng import NumpySource
from repro.runtime import (
    CounterSink,
    NoCharge,
    ReleasePipeline,
    ReleaseRequest,
    RingBufferSink,
    SlotCharge,
    default_pipeline,
    set_default_pipeline,
)


def scripted_draw(*batches):
    """A draw callable that replays scripted noise values in order."""
    queue = [float(v) for batch in batches for v in batch]

    def draw(n):
        out = np.array(queue[:n])
        del queue[:n]
        return out

    return draw


def make_request(codes, draw, **kw):
    kw.setdefault("mechanism", "test")
    kw.setdefault("epsilon", 0.5)
    kw.setdefault("claimed_loss", 1.0)
    return ReleaseRequest(codes=np.asarray(codes, dtype=float), draw=draw, **kw)


class TestGuards:
    def test_none_guard_adds_noise(self):
        pipe = ReleasePipeline()
        req = make_request([1.0, 2.0], scripted_draw([10.0, -10.0]))
        out = pipe.release(req)
        assert np.array_equal(out.values, [11.0, -8.0])
        assert np.array_equal(out.rounds, [1, 1])

    def test_threshold_guard_clamps(self):
        pipe = ReleasePipeline()
        req = make_request(
            [0.0, 0.0],
            scripted_draw([100.0, -100.0]),
            guard="threshold",
            window=(-5.0, 5.0),
        )
        out = pipe.release(req)
        assert np.array_equal(out.values, [5.0, -5.0])
        assert out.event.draws == 2  # clamping never redraws

    def test_resample_guard_redraws_out_of_window_lanes(self):
        pipe = ReleasePipeline()
        # Sample 0 lands inside immediately; sample 1 needs two redraws.
        draw = scripted_draw([1.0, 99.0], [99.0], [2.0])
        req = make_request(
            [0.0, 0.0], draw, guard="resample", window=(-5.0, 5.0)
        )
        out = pipe.release(req)
        assert np.array_equal(out.values, [1.0, 2.0])
        assert np.array_equal(out.rounds, [1, 3])
        assert out.event.draws == 4
        assert out.event.resample_rounds == 2
        assert out.event.max_rounds_used == 3

    def test_resample_exhaustion_raises_and_emits(self):
        pipe = ReleasePipeline()
        ring = pipe.add_sink(RingBufferSink())
        req = make_request(
            [0.0],
            lambda n: np.full(n, 99.0),
            guard="resample",
            window=(-5.0, 5.0),
            max_rounds=4,
        )
        with pytest.raises(ResampleExhaustedError):
            pipe.release(req)
        assert len(ring) == 1
        event = ring.events[0]
        assert event.exhausted
        assert event.draws == 4

    def test_guard_without_window_rejected(self):
        pipe = ReleasePipeline()
        req = make_request([0.0], scripted_draw([1.0]), guard="threshold")
        with pytest.raises(ConfigurationError):
            pipe.release(req)

    def test_unknown_guard_rejected(self):
        pipe = ReleasePipeline()
        req = make_request([0.0], scripted_draw([1.0]), guard="bogus")
        with pytest.raises(ConfigurationError):
            pipe.release(req)


class TestChargePolicies:
    def test_nocharge_is_unaccounted(self):
        out = NoCharge().charge(np.array([3.0, 4.0]))
        assert out.budget_remaining is None
        assert not out.cache_hits.any()
        assert out.charged.sum() == 0.0

    def test_flat_charge_then_cache_replay(self):
        pipe = ReleasePipeline()
        # One slot per sample: two can pay, two replay their cached code.
        remaining = np.array([2.0, 1.0, 0.5, 0.5])
        cached = np.array([np.nan, np.nan, 7.0, 8.0])
        req = make_request(
            [1.0, 2.0, 3.0, 4.0], scripted_draw([0.0, 0.0, 0.0, 0.0])
        )
        out = pipe.release(
            req, accounting=SlotCharge(remaining, cached, 1.0, slots=np.arange(4))
        )
        assert np.array_equal(out.values, [1.0, 2.0, 7.0, 8.0])
        assert np.array_equal(out.cache_hits, [False, False, True, True])
        assert np.array_equal(out.charged, [1.0, 1.0, 0.0, 0.0])
        assert np.array_equal(remaining, [1.0, 0.0, 0.5, 0.5])
        assert np.array_equal(cached, [1.0, 2.0, 7.0, 8.0])
        assert out.budget_remaining == 2.0
        assert out.event.cache_hits == 2
        assert out.event.charged == 2.0

    def test_flat_charge_refused_without_cache(self):
        pipe = ReleasePipeline()
        ring = pipe.add_sink(RingBufferSink())
        req = make_request([1.0], scripted_draw([0.0]))
        with pytest.raises(BudgetExhaustedError):
            pipe.release(req, accounting=SlotCharge(np.array([0.1]), None, 1.0))
        assert ring.events[-1].exhausted

    def test_decode_applies_after_charge(self):
        pipe = ReleasePipeline()
        req = make_request([1.0, 2.0], scripted_draw([0.0, 0.0]))
        req.decode = lambda k: k * 10.0
        out = pipe.release(req)
        assert np.array_equal(out.values, [10.0, 20.0])
        assert np.array_equal(out.codes, [1.0, 2.0])


class TestSinksAndEmission:
    def test_every_sink_sees_every_event(self):
        counters = CounterSink()
        ring = RingBufferSink()
        pipe = ReleasePipeline(sinks=[counters, ring])
        for _ in range(3):
            pipe.release(make_request([0.0], scripted_draw([1.0])))
        assert counters.n_events == 3
        assert len(ring) == 3
        assert [e.seq for e in ring.events] == [1, 2, 3]

    def test_capture_is_temporary(self):
        pipe = ReleasePipeline()
        with pipe.capture() as ring:
            pipe.release(make_request([0.0], scripted_draw([1.0])))
            assert len(ring) == 1
        pipe.release(make_request([0.0], scripted_draw([1.0])))
        assert len(ring) == 1  # detached after the with-block
        assert pipe.sinks == []

    def test_ring_buffer_bounded(self):
        ring = RingBufferSink(capacity=2)
        pipe = ReleasePipeline(sinks=[ring])
        for _ in range(5):
            pipe.release(make_request([0.0], scripted_draw([1.0])))
        assert len(ring) == 2
        assert [e.seq for e in ring.events] == [4, 5]

    def test_default_pipeline_roundtrip(self):
        previous = set_default_pipeline(ReleasePipeline())
        try:
            assert default_pipeline() is not previous
        finally:
            set_default_pipeline(previous)
        assert default_pipeline() is previous


class TestMechanismIntegration:
    def test_privatize_emits_one_event_per_call(self):
        pipe = ReleasePipeline()
        ring = pipe.add_sink(RingBufferSink())
        mech = make_mechanism(
            "thresholding",
            SensorSpec(0.0, 8.0),
            0.5,
            input_bits=12,
            source=NumpySource(seed=5),
            pipeline=pipe,
        )
        values = mech.privatize(np.linspace(0.0, 8.0, 16))
        assert values.shape == (16,)
        assert len(ring) == 1
        event = ring.events[0]
        assert event.mechanism == mech.name
        assert event.epsilon == 0.5
        assert event.batch == 16
        assert event.draws == 16  # thresholding is single-draw
        assert event.guard == "threshold"

    def test_resampling_counts_match_event(self):
        pipe = ReleasePipeline()
        ring = pipe.add_sink(RingBufferSink())
        mech = make_mechanism(
            "resampling",
            SensorSpec(0.0, 8.0),
            0.5,
            input_bits=12,
            source=NumpySource(seed=5),
            pipeline=pipe,
        )
        _, counts = mech.privatize_with_counts(np.full(32, 0.25))
        event = ring.events[-1]
        assert int(counts.sum()) == event.draws
        assert int(counts.max()) == event.max_rounds_used
