"""Sharded categorical fleet: worker-count identity, sinks, accuracy."""

import numpy as np
import pytest

from repro.aggregation import AggregationServer, fleet_device_id
from repro.errors import ConfigurationError
from repro.mechanisms import SensorSpec, make_oracle
from repro.parallel import (
    CategoricalKernel, plan_shards, run_fleet_categorical, run_fleet_sharded,
)
from repro.mechanisms import oracles
from repro.parallel.runner import draw_reporting
from repro.parallel.shm import ShmArena
from repro.rng import SplitStreamSource
from repro.rng.urng import shard_seed_sequences
from repro.runtime import CounterSink, JsonlSink, ReleasePipeline
from repro.runtime.sinks import read_events_jsonl


@pytest.fixture(scope="module")
def truth():
    rng = np.random.default_rng(12)
    return rng.integers(0, 6, size=(3, 1200))


def _run(truth, workers, **kwargs):
    kwargs.setdefault("oracle", "oue")
    kwargs.setdefault("source_seed", 77)
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("pipeline", ReleasePipeline(sinks=[]))
    kwargs.setdefault("rng", np.random.default_rng(5))
    return run_fleet_categorical(truth, 6, 2.0, workers=workers, **kwargs)


class TestWorkerCountIdentity:
    @pytest.mark.parametrize("oracle", ["krr", "oue", "olh"])
    def test_bit_identical_across_worker_counts(self, truth, oracle):
        r1 = _run(truth, workers=1, oracle=oracle, dropout=0.1)
        for workers in (2, 4):
            rw = _run(truth, workers=workers, oracle=oracle, dropout=0.1)
            for epoch in range(truth.shape[0]):
                c1, n1 = r1.server.category_counts(epoch)
                cw, nw = rw.server.category_counts(epoch)
                np.testing.assert_array_equal(c1, cw)
                assert n1 == nw
                np.testing.assert_array_equal(
                    r1.estimates[epoch].frequencies, rw.estimates[epoch].frequencies
                )

    def test_shard_count_is_reproducibility_key(self, truth):
        # Different shard counts are different runs (spawned streams).
        r4 = _run(truth, workers=1, shards=4)
        r2 = _run(truth, workers=1, shards=2)
        c4, _ = r4.server.category_counts(0)
        c2, _ = r2.server.category_counts(0)
        assert not np.array_equal(c4, c2)


class TestOlhShardDecode:
    """OLH decodes every epoch of a shard in one sweep after its last
    step; each count row must still be that epoch's own decode."""

    N_CATEGORIES, EPSILON, SHARDS, DROPOUT = 6, 2.0, 4, 0.85

    @pytest.fixture(scope="class")
    def olh_truth(self):
        return np.random.default_rng(31).integers(0, self.N_CATEGORIES, size=(5, 40))

    def _folded_rows(self, olh_truth, workers, monkeypatch):
        """Every ``(epoch, counts, n)`` the coordinator folds, in order."""
        folded = []
        submit = AggregationServer.submit_counts

        def record(server, epoch, counts, n, loss, donate=False):
            folded.append((epoch, np.array(counts), n))
            return submit(server, epoch, counts, n, loss, donate=donate)

        with monkeypatch.context() as patch:
            patch.setattr(AggregationServer, "submit_counts", record)
            run_fleet_categorical(
                olh_truth, self.N_CATEGORIES, self.EPSILON, oracle="olh",
                dropout=self.DROPOUT, rng=np.random.default_rng(8),
                source_seed=41, shards=self.SHARDS, workers=workers,
                pipeline=ReleasePipeline(sinks=[]),
            )
        return folded

    def _per_epoch_rows(self, olh_truth):
        """The same reports, decoded one epoch at a time."""
        reporting = draw_reporting(olh_truth, self.DROPOUT, np.random.default_rng(8))
        plan = plan_shards(olh_truth.shape[1], self.SHARDS)
        seqs = shard_seed_sequences(41, plan.n_shards)
        cells = {}
        for s, (start, stop) in enumerate(plan.slices):
            oracle = make_oracle(
                "olh", self.N_CATEGORIES, self.EPSILON, source=SplitStreamSource(seqs[s])
            )
            for epoch in range(olh_truth.shape[0]):
                users = start + np.flatnonzero(reporting[epoch, start:stop])
                if users.size:
                    reports = oracle.report(olh_truth[epoch, users], user_offset=users)
                    cells[epoch, s] = (
                        oracle.support_counts(reports, user_offset=users),
                        users.size,
                    )
        return [
            (epoch, counts, n)
            for (epoch, _), (counts, n) in sorted(cells.items())
        ]

    def test_rows_equal_per_epoch_decode(self, olh_truth, monkeypatch):
        expected = self._per_epoch_rows(olh_truth)
        # The masks leave some shard-epochs empty: those are skipped, and
        # the sweep must not shift the rows of the others.
        assert len(expected) < olh_truth.shape[0] * self.SHARDS
        folded = self._folded_rows(olh_truth, 1, monkeypatch)
        assert len(folded) == len(expected)
        for (epoch, counts, n), (e_epoch, e_counts, e_n) in zip(folded, expected):
            assert (epoch, n) == (e_epoch, e_n)
            np.testing.assert_array_equal(counts, e_counts)

    def test_two_workers_equal_one(self, olh_truth, monkeypatch):
        one = self._folded_rows(olh_truth, 1, monkeypatch)
        two = self._folded_rows(olh_truth, 2, monkeypatch)
        assert len(one) == len(two)
        for (epoch, counts, n), (epoch2, counts2, n2) in zip(one, two):
            assert (epoch, n) == (epoch2, n2)
            np.testing.assert_array_equal(counts, counts2)

    @pytest.mark.parametrize("bad_epoch", [0, 1, 2])
    @pytest.mark.parametrize("bad", [-1, 8, 11, 256 + 3])
    def test_out_of_range_report_raises_before_any_count(self, bad_epoch, bad):
        kernel = CategoricalKernel("olh", 16, 2.0, {})
        oracle = kernel.reference()
        assert oracle.g == 8  # 256 + 3 would wrap onto bucket 3 in uint8
        marker = np.full((3, 16), -7, dtype=np.int64)
        out = {"rows": marker.copy()}
        steps = []
        for epoch in range(3):
            idx = np.arange(epoch, 10, dtype=np.int64)
            reports = np.arange(idx.size, dtype=np.int64) % oracle.g
            if epoch == bad_epoch:
                reports[-1] = bad
            steps.append((epoch, idx, reports))
        with pytest.raises(ConfigurationError, match="OLH reports"):
            kernel.close_shard(oracle, out, 100, steps)
        np.testing.assert_array_equal(out["rows"], marker)


class TestHashOnce:
    """An OLH shard hashes its users once: every epoch's encode and the
    decode sweep gather from the same ``(a, b)`` columns."""

    N_CATEGORIES = 6

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        params = oracles._user_hash_params

        def counting(hash_seed, user_indices):
            seen.append(np.asarray(user_indices).copy())
            return params(hash_seed, user_indices)

        monkeypatch.setattr(oracles, "_user_hash_params", counting)
        return seen

    @pytest.mark.parametrize("dropout", [0.0, 0.3, 0.9])
    def test_one_hash_per_shard_that_reported(self, calls, dropout):
        truth = np.random.default_rng(4).integers(0, self.N_CATEGORIES, size=(3, 16))
        shards = 8
        run_fleet_categorical(
            truth, self.N_CATEGORIES, 2.0, oracle="olh", dropout=dropout,
            rng=np.random.default_rng(7), source_seed=3, shards=shards,
            workers=1, pipeline=ReleasePipeline(sinks=[]),
        )
        reporting = draw_reporting(truth, dropout, np.random.default_rng(7))
        plan = plan_shards(truth.shape[1], shards)
        reported = [
            (start, stop) for start, stop in plan.slices
            if reporting[:, start:stop].any()
        ]
        if dropout == 0.9:
            assert len(reported) < plan.n_shards  # a silent shard hashes nothing
        # One call per shard that reported, over its whole device range.
        assert [(c[0], c[-1] + 1) for c in calls] == reported

    @pytest.mark.parametrize("oracle", ["krr", "oue"])
    def test_other_oracles_hash_nothing(self, calls, oracle):
        truth = np.random.default_rng(4).integers(0, self.N_CATEGORIES, size=(3, 40))
        _run(truth, workers=1, oracle=oracle, dropout=0.2)
        assert calls == []

    def test_shared_columns_encode_like_the_public_call(self, calls):
        kernel = CategoricalKernel("olh", 300, 2.0, {})
        bound, unbound = kernel.reference(), kernel.reference()
        kernel.open_shard(bound, range(1000, 1500))
        rng = np.random.default_rng(2)
        for _ in range(3):
            users = 1000 + np.flatnonzero(rng.random(500) < 0.7)
            values = rng.integers(0, 300, size=users.size)
            np.testing.assert_array_equal(
                bound.encode(values, user_offset=users),
                unbound.encode(values, user_offset=users),
            )
            reports = unbound.report(values, user_offset=users)
            np.testing.assert_array_equal(
                bound.support_counts(reports, user_offset=users),
                unbound.support_counts(reports, user_offset=users),
            )
        # The bound oracle hashed its range once; users outside it (here
        # partly outside) are hashed directly, with the same result.
        assert sum(c.size == 500 for c in calls) == 1
        outside = np.array([999, 1000, 1499, 1500])
        np.testing.assert_array_equal(
            bound.encode(np.arange(4), user_offset=outside),
            unbound.encode(np.arange(4), user_offset=outside),
        )


class TestShardCountedTruth:
    """``true_frequencies`` comes from per-shard category counts; it must
    equal the per-epoch gather over the reporting devices."""

    N_CATEGORIES, SHARDS = 9, 8

    @pytest.fixture(scope="class")
    def cat_truth(self):
        return np.random.default_rng(17).integers(0, self.N_CATEGORIES, size=(4, 120))

    def _result(self, truth, oracle="olh", workers=1, dropout=0.3):
        return run_fleet_categorical(
            truth, self.N_CATEGORIES, 2.0, oracle=oracle, dropout=dropout,
            rng=np.random.default_rng(6), source_seed=5, shards=self.SHARDS,
            workers=workers, pipeline=ReleasePipeline(sinks=[]),
        )

    @pytest.mark.parametrize("oracle", ["krr", "oue", "olh"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dropout", [0.0, 0.3, 0.97])
    def test_equals_the_per_epoch_gather(self, cat_truth, oracle, workers, dropout):
        result = self._result(cat_truth, oracle, workers, dropout)
        reporting = draw_reporting(cat_truth, dropout, np.random.default_rng(6))
        if dropout == 0.97:
            plan = plan_shards(cat_truth.shape[1], self.SHARDS)
            assert any(
                not reporting[e, start:stop].any()
                for e in range(cat_truth.shape[0])
                for start, stop in plan.slices
            )
        assert len(result.true_frequencies) == cat_truth.shape[0]
        for epoch, got in enumerate(result.true_frequencies):
            mask = reporting[epoch]
            expected = np.bincount(
                cat_truth[epoch, mask], minlength=self.N_CATEGORIES
            ) / max(int(mask.sum()), 1)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
    def test_truth_dtype_does_not_matter(self, cat_truth, dtype):
        reference = self._result(cat_truth)
        result = self._result(cat_truth.astype(dtype))
        for got, expected in zip(result.true_frequencies, reference.true_frequencies):
            np.testing.assert_array_equal(got, expected)
        for e in reference.server.categorical_epochs:
            np.testing.assert_array_equal(
                result.estimates[e].frequencies, reference.estimates[e].frequencies
            )

    @pytest.mark.parametrize(
        "bad,dtype", [(-1, np.int32), (-1, np.int64), (9, np.uint64), (9, np.uint8)]
    )
    def test_out_of_range_raises_before_any_block(self, cat_truth, monkeypatch, bad, dtype):
        created = []
        create = ShmArena._create

        def recording(arena, nbytes):
            block = create(arena, nbytes)
            created.append(block.name)
            return block

        monkeypatch.setattr(ShmArena, "_create", recording)
        truth = cat_truth.astype(dtype)
        truth[2, 50] = bad
        with pytest.raises(ConfigurationError, match="categories must be in"):
            self._result(truth)
        assert created == []
        self._result(cat_truth.astype(dtype))
        assert created  # the patch does see a run's blocks


class TestAccuracyAndEstimates:
    def test_estimates_track_truth(self, truth):
        result = _run(truth, workers=1)
        assert result.mean_abs_error < 0.05
        for epoch, est in enumerate(result.estimates):
            z = np.abs(est.frequencies - result.true_frequencies[epoch])
            assert (z < 5 * est.std_errors() + 1e-9).all()

    def test_streaming_native(self, truth):
        result = _run(truth, workers=1)
        assert result.server.n_retained_reports == 0

    def test_disclosure_bound_recorded(self, truth):
        result = _run(truth, workers=1)
        # No dropout: every device reported every epoch at full epsilon.
        assert result.server.worst_case_disclosure("dev-0000") == pytest.approx(
            truth.shape[0] * 2.0
        )


class TestDisclosureLedger:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_device_total_exact(self, truth, workers):
        dropout = 0.2
        result = _run(truth, workers=workers, dropout=dropout)
        # The coordinator's mask draws, replayed from the same seed.
        rng = np.random.default_rng(5)
        n_epochs, n_devices = truth.shape
        masks = np.stack(
            [rng.random(n_devices) >= dropout for _ in range(n_epochs)]
        )
        loss = result.oracle.claimed_loss_bound
        expected = {}
        for i, count in enumerate(masks.sum(axis=0)):
            if count:
                expected[fleet_device_id(i)] = 0.0 + float(count) * loss
        server = result.server
        assert server.snapshot()["n_devices_tracked"] == len(expected)
        assert dict(server.ledger.items()) == expected
        for i in range(n_devices):
            dev = fleet_device_id(i)
            assert server.worst_case_disclosure(dev) == expected.get(dev, 0.0)


class TestTraceSubstrate:
    def test_counter_merge_per_kernel_and_mechanism(self, truth):
        result = _run(truth, workers=1, oracle="krr")
        counters = result.counters
        assert isinstance(counters, CounterSink)
        # 4 shards x 3 epochs, one release event each, merged in order.
        assert counters.n_events == 12
        assert counters.n_samples == truth.size
        per = counters.per_mechanism["k-RR"]
        assert per["events"] == 12
        assert per["samples"] == truth.size
        # The oracle draw path reports no kernel; the merged per-kernel
        # table must still fold those counts instead of dropping them.
        assert counters.per_kernel["unreported"]["events"] == 12
        assert counters.per_kernel["unreported"]["draws"] == counters.n_draws

    def test_counter_merge_equals_single_counter(self, truth):
        # Merged shard counters == one counter fed the adopted stream.
        from repro.runtime import RingBufferSink

        ring = RingBufferSink(capacity=1024)
        result = _run(truth, workers=1, pipeline=ReleasePipeline(sinks=[ring]))
        single = CounterSink()
        for event in ring.events:
            single.emit(event)
        merged = result.counters.summary()
        for key in ("events", "samples", "draws", "per_mechanism", "per_kernel"):
            assert merged[key] == single.summary()[key]

    def test_jsonl_append_trace(self, truth, tmp_path):
        path = tmp_path / "cat-trace.jsonl"

        def traced_run():
            with JsonlSink(path, append=True) as sink:
                return _run(truth, workers=2, pipeline=ReleasePipeline(sinks=[sink]))

        result = traced_run()
        events = read_events_jsonl(path)
        assert len(events) == result.counters.n_events
        assert {e.mechanism for e in events} == {"OUE"}
        # Adopted in shard order and renumbered: one monotone sequence.
        assert [e.seq for e in events] == list(range(1, len(events) + 1))
        # Append mode: a second run extends the same file.
        result2 = traced_run()
        events2 = read_events_jsonl(path)
        assert len(events2) == len(events) + result2.counters.n_events
        assert events2[: len(events)] == events
        assert [e.seq for e in events2[len(events):]] == [e.seq for e in events]

    def test_events_adopted_into_target_pipeline(self, truth):
        from repro.runtime import RingBufferSink

        ring = RingBufferSink(capacity=1024)
        _run(truth, workers=1, pipeline=ReleasePipeline(sinks=[ring]))
        assert len(ring.events) == 12
        # Adoption renumbers: seq strictly increasing across shards.
        seqs = [e.seq for e in ring.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestValidation:
    def test_rejects_float_categories(self):
        with pytest.raises(ConfigurationError):
            run_fleet_categorical(np.zeros((2, 4)), 4, 1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            run_fleet_categorical(np.full((2, 4), 9), 4, 1.0)

    def test_rejects_shared_source(self):
        with pytest.raises(ConfigurationError):
            run_fleet_categorical(
                np.zeros((2, 4), dtype=np.int64), 4, 1.0, source=object()
            )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            run_fleet_categorical(np.zeros(4, dtype=np.int64), 4, 1.0)
        with pytest.raises(ConfigurationError):
            run_fleet_categorical(
                np.zeros((2, 4), dtype=np.int64), 4, 1.0, dropout=1.0
            )
        with pytest.raises(ConfigurationError):
            run_fleet_categorical(
                np.zeros((2, 4), dtype=np.int64), 4, 1.0, workers=0
            )
        # Degenerate shapes behave as in the numeric runner: no devices
        # is a configuration error, no epochs an empty result.
        with pytest.raises(ConfigurationError):
            run_fleet_categorical(np.zeros((2, 0), dtype=int), 4, 1.0)
        with pytest.raises(ConfigurationError):
            run_fleet_sharded(np.zeros((2, 0)), SensorSpec(0.0, 8.0), 1.0)
        empty = run_fleet_categorical(np.zeros((0, 5), dtype=int), 4, 1.0)
        assert empty.estimates == [] and empty.true_frequencies == []
        assert empty.counters.n_events == 0
        numeric = run_fleet_sharded(np.zeros((0, 5)), SensorSpec(0.0, 8.0), 1.0)
        assert numeric.estimated_means == [] and numeric.true_means == []
