"""Batched vs scalar fleet execution: bit-identity and event shape."""

import numpy as np
import pytest

from repro.aggregation.fleet import run_fleet
from repro.errors import ConfigurationError
from repro.mechanisms import SensorSpec
from repro.runtime import ReleasePipeline, RingBufferSink


SENSOR = SensorSpec(0.0, 8.0)


def truth(n_epochs=3, n_devices=25, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 7.5, size=(n_epochs, n_devices))


def run_both(arm="thresholding", **kwargs):
    kwargs.setdefault("epsilon", 0.5)
    kwargs.setdefault("source_seed", 42)
    t = kwargs.pop("truth", truth())
    a = run_fleet(t, SENSOR, rng=np.random.default_rng(9), batched=True, **kwargs)
    b = run_fleet(t, SENSOR, rng=np.random.default_rng(9), batched=False, **kwargs)
    return a, b


def assert_bit_identical(a, b):
    assert a.server.epochs == b.server.epochs
    for epoch in a.server.epochs:
        assert np.array_equal(a.server.values(epoch), b.server.values(epoch))
        assert [r.device_id for r in a.server.reports(epoch)] == [
            r.device_id for r in b.server.reports(epoch)
        ]


class TestBitIdentity:
    @pytest.mark.parametrize("arm", ["thresholding", "baseline"])
    def test_single_draw_arms_bit_identical(self, arm):
        a, b = run_both(arm=arm)
        assert_bit_identical(a, b)

    def test_ideal_arm_bit_identical(self):
        a, b = run_both(arm="ideal")
        assert_bit_identical(a, b)

    def test_identical_under_budget_and_dropout(self):
        a, b = run_both(device_budget=2.5, dropout=0.2)
        assert_bit_identical(a, b)
        for dev_a, dev_b in zip(a.devices, b.devices):
            assert dev_a.n_fresh == dev_b.n_fresh
            assert dev_a.n_cached == dev_b.n_cached
            assert dev_a.remaining_budget == dev_b.remaining_budget

    def test_resampling_runs_on_both_paths(self):
        # Redraw interleaving differs between the paths, so outputs agree
        # only in distribution — both must still run end to end.
        a, b = run_both(arm="resampling", input_bits=12)
        assert np.isfinite(a.mean_abs_error)
        assert np.isfinite(b.mean_abs_error)


class TestEventShape:
    def test_batched_epoch_is_one_event(self):
        pipe = ReleasePipeline()
        ring = pipe.add_sink(RingBufferSink())
        t = truth(n_epochs=3, n_devices=25)
        run_fleet(
            t, SENSOR, epsilon=0.5, source_seed=1, batched=True, pipeline=pipe
        )
        assert len(ring) == 3
        assert all(e.batch == 25 for e in ring.events)
        assert [e.channel for e in ring.events] == [
            "epoch-0", "epoch-1", "epoch-2"
        ]

    def test_scalar_path_is_one_event_per_device(self):
        pipe = ReleasePipeline()
        ring = pipe.add_sink(RingBufferSink())
        t = truth(n_epochs=2, n_devices=10)
        run_fleet(
            t, SENSOR, epsilon=0.5, source_seed=1, batched=False, pipeline=pipe
        )
        assert len(ring) == 20
        assert all(e.batch == 1 for e in ring.events)
        assert ring.events[0].channel == "dev-0000"


class TestBudgetSemantics:
    def test_devices_cache_after_exhaustion(self):
        # Loss bound 1.0 per report, budget 2.0, 4 epochs: 2 fresh + 2
        # cached per device on both paths.
        t = truth(n_epochs=4, n_devices=8)
        a, b = run_both(truth=t, device_budget=2.0)
        assert_bit_identical(a, b)
        for result in (a, b):
            assert all(d.n_fresh == 2 and d.n_cached == 2 for d in result.devices)
            assert all(d.remaining_budget == 0.0 for d in result.devices)

    @pytest.mark.parametrize("batched", [True, False])
    def test_zero_budget_refused(self, batched):
        with pytest.raises(ConfigurationError):
            run_fleet(
                truth(n_epochs=1, n_devices=4),
                SENSOR,
                epsilon=0.5,
                device_budget=0.0,
                source_seed=1,
                batched=batched,
            )
