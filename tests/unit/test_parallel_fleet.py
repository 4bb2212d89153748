"""Sharded fleet execution: worker-count bit-identity and merge shape.

The tentpole invariant, asserted directly: a fleet run sharded across W
workers is bit-identical to the same shard plan at ``workers=1`` for
the single-draw guards (thresholding / baseline / rr) under either
sampling kernel, and a ``shards=1`` run — what ``run_fleet`` runs by
default — is bit-identical to the scalar reference loop
(``run_fleet(batched=False)``).  Worker counts {1, 2, 4}
exercise the inline path, a smaller-than-shards pool, and a full pool.
"""

import math
import multiprocessing
import os

import numpy as np
import pytest

from repro.aggregation import AggregationServer, fleet_device_id
from repro.aggregation.fleet import run_fleet
from repro.errors import ConfigurationError
from repro.mechanisms import SensorSpec
from repro.parallel import DEFAULT_SHARDS, NumericKernel, plan_shards, run_fleet_sharded
from repro.parallel import runner
from repro.parallel.runner import draw_reporting
from repro.rng import CordicLn
from repro.runtime import CounterSink, ReleasePipeline, RingBufferSink

SENSOR = SensorSpec(0.0, 8.0)
EPS = 0.5
SEED = 42


def truth(n_epochs=3, n_devices=48, seed=0, binary=False):
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.5, 7.5, size=(n_epochs, n_devices))
    if binary:
        return np.where(t > 4.0, SENSOR.M, SENSOR.m)
    return t


def run_sharded(workers, arm="thresholding", t=None, **kwargs):
    kwargs.setdefault("source_seed", SEED)
    kwargs.setdefault("shards", 4)
    if t is None:
        t = truth(binary=(arm == "rr"))
    return run_fleet_sharded(
        t, SENSOR, EPS, arm=arm, rng=np.random.default_rng(9),
        workers=workers, **kwargs
    )


def assert_bit_identical(a, b):
    assert a.server.epochs == b.server.epochs
    for epoch in a.server.epochs:
        assert np.array_equal(a.server.values(epoch), b.server.values(epoch))
        assert [r.device_id for r in a.server.reports(epoch)] == [
            r.device_id for r in b.server.reports(epoch)
        ]


def assert_same_device_state(a, b):
    assert_bit_identical(a, b)
    assert len(a.devices) == len(b.devices) > 0
    for dev_a, dev_b in zip(a.devices, b.devices):
        assert dev_a.n_fresh == dev_b.n_fresh
        assert dev_a.n_cached == dev_b.n_cached
        assert dev_a.remaining_budget == dev_b.remaining_budget
        assert np.array_equal(dev_a._cached, dev_b._cached, equal_nan=True)


class TestShardPlan:
    def test_balanced_and_exhaustive(self):
        plan = plan_shards(50, 4)
        sizes = [stop - start for start, stop in plan.slices]
        assert sum(sizes) == 50
        assert max(sizes) - min(sizes) <= 1
        assert plan.offsets[0] == 0 and plan.offsets[-1] == 50

    def test_clamped_to_devices(self):
        assert plan_shards(3, 8).n_shards == 3
        assert plan_shards(3).n_shards == 3

    def test_default_count(self):
        assert plan_shards(1000).n_shards == DEFAULT_SHARDS

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            plan_shards(0)
        with pytest.raises(ConfigurationError):
            plan_shards(10, 0)

    def test_shard_of(self):
        plan = plan_shards(10, 2)
        assert plan.shard_of(0) == 0
        assert plan.shard_of(9) == 1
        with pytest.raises(ConfigurationError):
            plan.shard_of(10)


class TestWorkerCountBitIdentity:
    @pytest.mark.parametrize("arm", ["thresholding", "baseline", "rr"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_single_draw_arms(self, arm, workers):
        assert_bit_identical(run_sharded(1, arm=arm), run_sharded(workers, arm=arm))

    @pytest.mark.parametrize("kernel", ["codebook", "live"])
    def test_kernels_with_hardware_log(self, kernel):
        kwargs = dict(log_backend=CordicLn(), kernel=kernel)
        assert_bit_identical(
            run_sharded(1, **kwargs), run_sharded(2, **kwargs)
        )

    def test_ideal_arm(self):
        assert_bit_identical(
            run_sharded(1, arm="ideal"), run_sharded(2, arm="ideal")
        )

    def test_budget_and_dropout_state(self):
        kwargs = dict(device_budget=2.5, dropout=0.2)
        assert_same_device_state(run_sharded(1, **kwargs), run_sharded(4, **kwargs))

    def test_budget_dropout_state_two_workers(self):
        # A pool smaller than the shard count: workers pick up several
        # shards' device-state regions each.
        kwargs = dict(device_budget=2.5, dropout=0.2)
        one = run_sharded(1, **kwargs)
        assert any(dev.n_cached for dev in one.devices)
        assert_same_device_state(one, run_sharded(2, **kwargs))

    def test_resampling_runs_sharded(self):
        # Resampling's redraw interleaving is batch-shaped; sharded runs
        # agree with themselves (fixed plan) but not with other plans.
        a = run_sharded(1, arm="resampling")
        b = run_sharded(2, arm="resampling")
        assert_bit_identical(a, b)


class TestLegacyBridge:
    def test_one_shard_matches_scalar_loop(self):
        t = truth()
        scalar = run_fleet(
            t, SENSOR, EPS, rng=np.random.default_rng(9),
            source_seed=SEED, batched=False,
        )
        bridge = run_sharded(1, t=t, shards=1)
        assert_bit_identical(scalar, bridge)

    def test_run_fleet_delegates(self):
        t = truth()
        via_fleet = run_fleet(
            t, SENSOR, EPS, rng=np.random.default_rng(9),
            source_seed=SEED, shards=4, workers=2,
        )
        direct = run_sharded(2, t=t)
        assert_bit_identical(via_fleet, direct)
        assert via_fleet.shard_plan.n_shards == 4

    def test_scalar_path_cannot_shard(self):
        with pytest.raises(ConfigurationError):
            run_fleet(
                truth(), SENSOR, EPS, batched=False, workers=2,
                rng=np.random.default_rng(9),
            )


class TestMerge:
    def test_events_reassembled_in_shard_order(self):
        pipeline = ReleasePipeline()
        ring = pipeline.add_sink(RingBufferSink())
        run_sharded(2, pipeline=pipeline, shards=2)
        channels = [e.channel for e in ring.events]
        n_epochs = 3
        expected = [
            f"epoch-{epoch}/shard-{s}" for s in range(2) for epoch in range(n_epochs)
        ]
        assert channels == expected
        seqs = [e.seq for e in ring.events]
        assert seqs == sorted(seqs)

    def test_counters_cover_all_reports(self):
        result = run_sharded(2, dropout=0.25)
        counters = result.counters
        total_reports = sum(
            result.server.summarize(e).n_reports for e in result.server.epochs
        )
        assert counters.n_samples == total_reports
        # One event per non-empty (epoch, shard) pair.
        assert 0 < counters.n_events <= 3 * 4

    def test_exhausted_budget_raises_typed_error_through_pool(self):
        tiny = dict(device_budget=0.1, shards=2)
        with pytest.raises(ConfigurationError):
            run_sharded(2, **tiny)

    def test_forbidden_shared_instances(self):
        from repro.rng.urng import SplitStreamSource

        with pytest.raises(ConfigurationError):
            run_sharded(1, source=SplitStreamSource(1))


class TestStreamingRuns:
    def test_streaming_bit_identical_across_workers(self):
        a = run_sharded(1, streaming=True, with_devices=False)
        b = run_sharded(4, streaming=True, with_devices=False)
        assert a.server.epochs == b.server.epochs
        for epoch in a.server.epochs:
            assert a.server.moments(epoch) == b.server.moments(epoch)
        assert a.estimated_means == b.estimated_means

    def test_streaming_matches_retaining(self):
        # Same shard plan + seed → same privatized values; the streaming
        # fold sums them in a different floating-point order (Chan's
        # merge), so means/variances agree to rounding, counts exactly.
        st = run_sharded(1, streaming=True, with_devices=False)
        rt = run_sharded(1)
        assert st.estimated_means == pytest.approx(rt.estimated_means, rel=1e-12)
        for epoch in rt.server.epochs:
            m = st.server.moments(epoch)
            summary = rt.server.summarize(epoch)
            assert m["count"] == summary.n_reports
            assert st.server.summarize(epoch).variance == pytest.approx(
                summary.variance, rel=1e-9
            )

    def test_streaming_pooled_matches_retaining(self):
        streaming = run_sharded(2, streaming=True)
        retaining = run_sharded(2)
        for epoch in retaining.server.epochs:
            ref = retaining.server.values(epoch)
            summary = streaming.server.summarize(epoch)
            assert summary.n_reports == ref.size
            assert summary.mean == pytest.approx(float(ref.mean()), rel=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("thresholds", [(), (2.0, 5.5)])
    def test_shard_moments_equal_a_fold_of_the_values(self, workers, thresholds):
        # The streaming run's shards ship moment rows; folding the same
        # shard batches' values (a retaining run keeps them, one batch
        # per shard in shard order) must give the same state bit for bit.
        kwargs = dict(dropout=0.25, shards=4, count_thresholds=thresholds)
        st = run_sharded(workers, streaming=True, with_devices=False, **kwargs)
        rt = run_sharded(workers, **kwargs)
        replay = AggregationServer(streaming=True, count_thresholds=thresholds)
        for epoch in rt.server.epochs:
            for batch in rt.server._epochs[epoch]:
                replay.submit_array(epoch, batch.values, batch.claimed_loss)
        assert st.server.epochs == replay.epochs == rt.server.epochs
        for epoch in replay.epochs:
            got, want = st.server.moments(epoch), replay.moments(epoch)
            assert repr(got) == repr(want)

    def test_streaming_retains_no_reports(self):
        result = run_sharded(2, streaming=True, with_devices=False)
        assert result.server.n_retained_reports == 0
        assert result.devices == []

    def test_streaming_disclosure_matches_retaining(self):
        # Streaming charges the dense ledger column once per run; retain
        # mode charges each id per report in the dict store.  Every
        # device's total must agree exactly.
        st = run_sharded(1, streaming=True, with_devices=False, dropout=0.2)
        rt = run_sharded(1, dropout=0.2)
        n_devices = truth().shape[1]
        assert dict(st.server.ledger.items()) == dict(rt.server.ledger.items())
        for i in range(n_devices):
            dev = fleet_device_id(i)
            assert st.server.worst_case_disclosure(
                dev
            ) == rt.server.worst_case_disclosure(dev)
        assert (
            st.server.snapshot()["n_devices_tracked"]
            == rt.server.snapshot()["n_devices_tracked"]
        )


def fsum_means(t, reporting):
    return [
        math.fsum(t[epoch, mask]) / int(mask.sum())
        for epoch, mask in enumerate(reporting)
    ]


class TestTrueMeans:
    """True means come from the shards' partial sums, summed in shard
    order: the same for any worker count, within rounding of one mean
    over each epoch's reports."""

    KWARGS = dict(dropout=0.25, streaming=True, with_devices=False)

    def test_bit_identical_across_workers(self):
        t = truth(n_epochs=4, n_devices=96)
        means = [
            run_sharded(w, t=t, shards=8, **self.KWARGS).true_means for w in (1, 2, 4)
        ]
        assert means[0] == means[1] == means[2]

    def test_close_to_fsum_and_scalar_loop(self):
        t = truth(n_epochs=4, n_devices=96)
        sharded = run_sharded(2, t=t, shards=8, **self.KWARGS)
        reporting = draw_reporting(t, 0.25, np.random.default_rng(9))
        assert sharded.true_means == pytest.approx(fsum_means(t, reporting), rel=1e-12)
        scalar = run_fleet(
            t, SENSOR, EPS, rng=np.random.default_rng(9), dropout=0.25,
            source_seed=SEED, batched=False,
        )
        assert sharded.true_means == pytest.approx(scalar.true_means, rel=1e-12)

    def test_one_shard_matches_scalar_loop_exactly(self):
        t = truth()
        scalar = run_fleet(
            t, SENSOR, EPS, rng=np.random.default_rng(9), dropout=0.25,
            source_seed=SEED, batched=False,
        )
        bridge = run_sharded(1, t=t, shards=1, dropout=0.25)
        assert bridge.true_means == scalar.true_means


class TestDeviceColumns:
    """The generic output layout (``runner.allocate_outputs``), recorded
    per run: whole-run block names and every shard's region shape."""

    GENERIC = ["n", "report_counts", "rows", "truth"]

    @pytest.fixture
    def layouts(self, monkeypatch):
        seen = []
        allocate = runner.allocate_outputs

        def recording(kernel, arena, plan, n_epochs):
            blocks, shard_refs = allocate(kernel, arena, plan, n_epochs)
            seen.append(
                (sorted(blocks), [{k: r.shape for k, r in s.items()} for s in shard_refs])
            )
            return blocks, shard_refs

        monkeypatch.setattr(runner, "allocate_outputs", recording)
        return seen

    def test_unbudgeted_run_keeps_no_device_columns(self, layouts):
        t = truth()
        sharded = run_sharded(2, t=t, dropout=0.25)
        [(names, _)] = layouts
        assert names == self.GENERIC
        scalar = run_fleet(
            t, SENSOR, EPS, rng=np.random.default_rng(9), dropout=0.25,
            source_seed=SEED, batched=False,
        )
        assert len(sharded.devices) == len(scalar.devices) == t.shape[1]
        for dev_a, dev_b in zip(sharded.devices, scalar.devices):
            assert dev_a.n_fresh == dev_b.n_fresh > 0
            assert dev_a.n_cached == dev_b.n_cached == 0
            assert dev_a._cached is dev_b._cached is None
            assert dev_a.remaining_budget is dev_b.remaining_budget is None

    def test_budgeted_run_adds_its_columns(self, layouts):
        run_sharded(2, t=truth(), dropout=0.25, device_budget=40.0)
        [(names, shards)] = layouts
        columns = ["cached_codes", "n_cached", "n_fresh", "remaining"]
        assert names == sorted(self.GENERIC + columns)
        widths = [stop - start for start, stop in plan_shards(48, 4).slices]
        for shard, width in zip(shards, widths):
            for name in ("report_counts", *columns):
                assert shard[name] == (width,)

    @pytest.mark.parametrize(
        "streaming,thresholds", [(False, ()), (True, ()), (True, (2.0, 5.5, 2.0))]
    )
    def test_each_kernel_ships_what_its_server_keeps(
        self, layouts, streaming, thresholds
    ):
        run_sharded(
            2, t=truth(), dropout=0.25, streaming=streaming,
            count_thresholds=thresholds, with_devices=False,
        )
        [(names, shards)] = layouts
        assert names == self.GENERIC
        widths = [stop - start for start, stop in plan_shards(48, 4).slices]
        for shard, width in zip(shards, widths):
            assert shard["n"] == (3,)
            assert shard["truth"] == (3,)
            if streaming:
                # One moment row per (shard, epoch), no per-report region;
                # a repeated threshold is registered, and counted, once.
                assert shard["rows"] == (3, 5 + len(set(thresholds)))
            else:
                # Retaining: the truth block's shape, whatever the dropout.
                assert shard["rows"] == (3, width)


class TestCalibrateOnce:
    """A fleet call calibrates its guarded arm's exact threshold once, on
    the coordinator's reference arm; every shard's arm is built on it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # Both guarded arms calibrate in their shared base.
        from repro.mechanisms import fxp_common

        parent, seen = os.getpid(), []
        calibrate = fxp_common.calibrate_threshold_exact

        def counting(*args, **kwargs):
            # A forked pool worker inherits this patch; its count
            # would be invisible here, so it fails the call instead.
            assert os.getpid() == parent, "a shard recalibrated"
            seen.append(kwargs["mode"])
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(fxp_common, "calibrate_threshold_exact", counting)
        return seen

    @pytest.mark.parametrize("arm", ["resampling", "thresholding"])
    @pytest.mark.parametrize("workers,shards", [(1, 1), (1, 4), (2, 4), (4, 8)])
    def test_one_calibration_per_call(self, calls, monkeypatch, arm, workers, shards):
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("the patch reaches pool workers only when they fork")
        reference = NumericKernel(arm, SENSOR, EPS, None, {}).reference()
        del calls[:]
        build = NumericKernel.build

        def checked(kernel, seed_seq, pipeline):
            mechanism = build(kernel, seed_seq, pipeline)
            assert mechanism.threshold == reference.threshold
            assert mechanism.window == reference.window
            return mechanism

        monkeypatch.setattr(NumericKernel, "build", checked)
        result = run_sharded(workers, arm=arm, shards=shards)
        assert len(calls) == 1
        assert result.devices[0]._mechanism.window == reference.window


class TestShardWrittenCounts:
    """The shards count the reports: per (shard, epoch) ``n`` and per
    device ``report_counts``.  Everything the coordinator derives from
    those counts must equal what the masks say, bit for bit."""

    SHARDS = 4

    @pytest.fixture
    def folded(self, monkeypatch):
        from repro.parallel import CategoricalKernel

        seen = []
        for cls in (NumericKernel, CategoricalKernel):
            submit = cls.submit

            def record(kernel, server, epoch, row, n, loss, start, mask, _submit=submit):
                seen.append((epoch, start, n, np.array(row)))
                return _submit(kernel, server, epoch, row, n, loss, start, mask)

            monkeypatch.setattr(cls, "submit", record)
        return seen

    @staticmethod
    def _fleet(dropout, categorical):
        # 0.97 on a tiny fleet: most shard-epochs are empty and some
        # epochs take the all-straggler fallback.
        n_devices = 48 if dropout == 0.0 else 12
        rng = np.random.default_rng(5)
        if categorical:
            return rng.integers(0, 5, size=(4, n_devices))
        return rng.uniform(0.5, 7.5, size=(4, n_devices))

    @pytest.mark.parametrize("dropout", [0.0, 0.97])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("categorical", [False, True], ids=["numeric", "categorical"])
    def test_counts_match_the_masks(self, folded, categorical, workers, dropout):
        from repro.parallel import run_fleet_categorical

        t = self._fleet(dropout, categorical)
        common = dict(
            dropout=dropout, rng=np.random.default_rng(9), source_seed=SEED,
            workers=workers, shards=self.SHARDS,
        )
        if categorical:
            result = run_fleet_categorical(t, 5, 2.0, oracle="krr", **common)
            loss = result.oracle.claimed_loss_bound
        else:
            result = run_fleet_sharded(t, SENSOR, EPS, streaming=True, **common)
            loss = result.devices[0]._mechanism.claimed_loss_bound
        reporting = draw_reporting(t, dropout, np.random.default_rng(9))
        plan = plan_shards(t.shape[1], self.SHARDS)

        # Ledger totals: one bulk charge of the shard-written counts.
        expected = reporting.sum(axis=0) * loss
        totals = [
            result.server.worst_case_disclosure(fleet_device_id(i))
            for i in range(t.shape[1])
        ]
        assert totals == expected.tolist()

        # One fold per nonempty (epoch, shard) cell, n = its mask count.
        cells = [
            (epoch, start, int(np.count_nonzero(reporting[epoch, start:stop])))
            for epoch in range(t.shape[0])
            for start, stop in plan.slices
            if reporting[epoch, start:stop].any()
        ]
        assert [(epoch, start, n) for epoch, start, n, _ in folded] == cells
        if not categorical:
            assert [row[0] for *_, row in folded] == [n for *_, n in cells]

        # Truth summaries: the shards' truth rows in shard order over the
        # masks' per-epoch counts, as the coordinator computed them
        # before the shards counted.
        n_reports = np.array([np.count_nonzero(mask) for mask in reporting])
        if categorical:
            counts = [
                [np.bincount(t[e, start:stop][reporting[e, start:stop]], minlength=5)
                 for e in range(t.shape[0])]
                for start, stop in plan.slices
            ]
            parent = [
                row / max(int(n), 1)
                for row, n in zip(np.array(counts).sum(axis=0), n_reports)
            ]
            assert len(result.true_frequencies) == len(parent)
            for got, want in zip(result.true_frequencies, parent):
                assert got.tobytes() == want.tobytes()
        else:
            sums = np.array([
                [t[e, start:stop][reporting[e, start:stop]].sum() for e in range(t.shape[0])]
                for start, stop in plan.slices
            ])
            assert result.true_means == (sums.sum(axis=0) / n_reports).tolist()
