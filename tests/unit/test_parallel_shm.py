"""Shared-memory arena lifecycle: leaks are the failure mode that matters.

POSIX shared memory persists past process death — a crashed worker or a
coordinator that skips its ``finally`` leaves ``/dev/shm`` segments
behind until reboot.  These tests pin the guarantees the arena makes:
every block is unlinked and every held input dropped on the normal
path, on the worker-crash path (``BrokenProcessPool``), and on the
in-worker-exception path; a forked child's interpreter shutdown never
unlinks the coordinator's blocks (the pid-guarded finalizer); the
ref/attach plumbing round-trips arrays bit-exactly; an attach in the
creating process reuses the arena's own mapping instead of mapping the
block a second time; and a run's inputs are read in place, never
copied into a block.
"""

import multiprocessing
import os
import threading

import numpy as np
import pytest
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

from repro.errors import ConfigurationError
from repro.mechanisms import SensorSpec
from repro.parallel import run_fleet_sharded
from repro.parallel import shm as shm_module
from repro.parallel.shm import HeldRef, ShmArena, ShmArrayRef, attach_array

SENSOR = SensorSpec(0.0, 8.0)


def _attachable(name: str) -> bool:
    try:
        handle = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    handle.close()
    return True


def _leaked(before):
    """Names under /dev/shm that appeared since ``before`` and remain."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("needs /dev/shm to observe leaks")
    return set(os.listdir("/dev/shm")) - before


def _stored(arena, data):
    """A fresh block of the arena holding a copy of ``data``."""
    ref = arena.allocate(data.shape, data.dtype)
    arena.view(ref)[...] = data
    return ref


def _shm_snapshot():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("needs /dev/shm to observe leaks")
    return set(os.listdir("/dev/shm"))


class TestArenaBasics:
    def test_share_round_trips_bit_exact(self):
        with ShmArena() as arena:
            data = np.random.default_rng(0).standard_normal((7, 13))
            ref = _stored(arena, data)
            np.testing.assert_array_equal(arena.view(ref), data)
            np.testing.assert_array_equal(attach_array(ref), data)

    def test_sub_ref_addresses_a_slice(self):
        with ShmArena() as arena:
            data = np.arange(24, dtype=np.float64)
            ref = _stored(arena, data)
            window = ref.sub(6, (4,))
            np.testing.assert_array_equal(arena.view(window), data[6:10])

    def test_close_unlinks_and_is_idempotent(self):
        arena = ShmArena()
        ref = arena.allocate((4,), np.float64)
        assert _attachable(ref.name)
        arena.close()
        assert not _attachable(ref.name)
        assert arena.closed
        arena.close()  # second close is a no-op

    def test_worker_writes_are_visible_to_creator(self):
        # The output-buffer contract: another process's attachment writes
        # land in the creator's view (same physical pages).
        with ShmArena() as arena:
            ref = arena.allocate((8,), np.float64)
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child exits before reporting
                attach_array(ref)[...] = np.arange(8.0)
                os._exit(0)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            np.testing.assert_array_equal(arena.view(ref), np.arange(8.0))

    def test_in_process_attach_reuses_the_arena_mapping(self):
        # One mapping per block per process: an inline (workers=1) run
        # must not map its arena's blocks a second time.
        with ShmArena() as arena:
            ref = _stored(arena, np.arange(12.0)).sub(2, (5,))
            attached = attach_array(ref)
            assert np.shares_memory(attached, arena.view(ref))
            np.testing.assert_array_equal(attached, np.arange(2.0, 7.0))
            assert not shm_module._ATTACHED
            del attached

    def test_allocate_is_zero_initialized(self):
        with ShmArena() as arena:
            ref = arena.allocate((64,), np.int64)
            assert not arena.view(ref).any()


class TestHold:
    def test_hold_reads_columns_in_place(self):
        matrix = np.random.default_rng(4).standard_normal((4, 30))
        with ShmArena() as arena:
            (ref,) = arena.hold([matrix])
            assert ref == HeldRef(ref.token)
            columns = ref.columns(5, 12).attach()
            assert np.shares_memory(columns, matrix)
            np.testing.assert_array_equal(columns, matrix[:, 5:12])
            np.testing.assert_array_equal(ref.attach(), matrix)
            assert not columns.flags.writeable
            assert arena.block_names == []
        assert matrix.flags.writeable

    def test_close_drops_held_inputs(self):
        arena = ShmArena()
        refs = arena.hold([np.ones((2, 3)), np.zeros((2, 3), dtype=bool)])
        assert {ref.token for ref in refs} <= set(shm_module._HELD)
        assert not arena.closed
        arena.close()
        assert arena.closed
        assert not {ref.token for ref in refs} & set(shm_module._HELD)
        with pytest.raises(KeyError):
            refs[0].attach()

    def test_forked_child_reads_held_columns(self):
        matrix = np.arange(24.0).reshape(3, 8)
        with ShmArena() as arena:
            (held,) = arena.hold([matrix])
            out = arena.allocate((3,), np.float64)
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child exits before reporting
                attach_array(out)[...] = held.columns(2, 6).attach().sum(axis=1)
                os._exit(0)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            np.testing.assert_array_equal(arena.view(out), matrix[:, 2:6].sum(axis=1))


class TestForkSafety:
    def test_forked_child_close_does_not_unlink(self):
        # Pool workers inherit the arena object over fork; their exit
        # (normal or not) must never unlink the coordinator's blocks.
        arena = ShmArena()
        ref = arena.allocate((6,), np.float64)
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child exits before reporting
            arena.close()
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert _attachable(ref.name), "child shutdown unlinked a live block"
        arena.close()
        assert not _attachable(ref.name)


def _fleet_kwargs(**overrides):
    kwargs = dict(
        arm="thresholding",
        source_seed=7,
        shards=4,
        rng=np.random.default_rng(3),
    )
    kwargs.update(overrides)
    return kwargs


class TestRunnerCleanup:
    def test_normal_run_leaves_no_blocks(self):
        before = _shm_snapshot()
        truth = np.random.default_rng(0).uniform(1.0, 7.0, size=(3, 40))
        run_fleet_sharded(truth, SENSOR, 0.5, workers=2, **_fleet_kwargs())
        assert not _leaked(before)

    def test_inline_shm_run_leaves_no_blocks(self):
        before = _shm_snapshot()
        truth = np.random.default_rng(0).uniform(1.0, 7.0, size=(3, 40))
        run_fleet_sharded(truth, SENSOR, 0.5, workers=1, **_fleet_kwargs())
        assert not _leaked(before)
        assert not shm_module._ATTACHED
        assert not shm_module._OWNED

    def test_worker_exception_leaves_no_blocks(self):
        # A budget too small for even one release raises a typed error
        # from inside the worker; the finally must still unlink.
        before = _shm_snapshot()
        truth = np.random.default_rng(0).uniform(1.0, 7.0, size=(3, 40))
        with pytest.raises(ConfigurationError):
            run_fleet_sharded(
                truth,
                SENSOR,
                0.5,
                workers=2,
                **_fleet_kwargs(device_budget=1e-9),
            )
        assert not _leaked(before)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_holder_is_empty_after_a_run(self, workers):
        truth = np.random.default_rng(0).uniform(1.0, 7.0, size=(3, 40))
        run_fleet_sharded(truth, SENSOR, 0.5, workers=workers, **_fleet_kwargs())
        assert not shm_module._HELD

    @pytest.mark.parametrize("workers", [1, 2])
    def test_holder_is_empty_after_a_raising_shard(self, workers):
        truth = np.random.default_rng(0).uniform(1.0, 7.0, size=(3, 40))
        with pytest.raises(ConfigurationError):
            run_fleet_sharded(
                truth, SENSOR, 0.5, workers=workers,
                **_fleet_kwargs(device_budget=1e-9),
            )
        assert not shm_module._HELD

    def test_killed_worker_leaves_no_blocks(self, monkeypatch):
        # Hard worker death (os._exit skips every handler in the child)
        # surfaces as BrokenProcessPool; the coordinator's finally must
        # still unlink every named block.
        from repro.parallel import runner as runner_module

        monkeypatch.setattr(runner_module, "run_shard", _exit_hard)
        before = _shm_snapshot()
        truth = np.random.default_rng(0).uniform(1.0, 7.0, size=(3, 40))
        with pytest.raises(BrokenProcessPool):
            run_fleet_sharded(truth, SENSOR, 0.5, workers=2, **_fleet_kwargs())
        assert not _leaked(before)


class TestRunnerPackOverlap:
    """The inputs are held, never copied: bad inputs raise before any
    block exists, no block is as large as the truth, the pool forks
    with one live thread, and a platform without ``fork`` runs inline
    only."""

    @pytest.mark.parametrize(
        "truth,dropout",
        [
            pytest.param(np.ones((3, 40)), 1.0, id="dropout-one"),
            pytest.param(np.ones((3, 40)), -0.1, id="dropout-negative"),
            pytest.param(np.ones((3, 40)), float("nan"), id="dropout-nan"),
            pytest.param(np.ones(40), 0.0, id="one-dimensional"),
            pytest.param(np.ones((3, 0)), 0.0, id="no-devices"),
        ],
    )
    def test_bad_inputs_raise_before_any_block(self, monkeypatch, truth, dropout):
        created = []
        create = ShmArena._create

        def recording(arena, nbytes):
            created.append(nbytes)
            return create(arena, nbytes)

        monkeypatch.setattr(ShmArena, "_create", recording)
        threads = threading.active_count()
        with pytest.raises(ConfigurationError):
            run_fleet_sharded(truth, SENSOR, 0.5, dropout=dropout, **_fleet_kwargs())
        assert created == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_helper_thread_outlives_the_pack(self, monkeypatch, workers):
        # Python 3.12 warns when it forks with other threads alive.
        from repro.parallel import runner as runner_module

        seen = []

        class Recording(ProcessPoolExecutor):
            def __init__(self, *args, mp_context=None, **kwargs):
                seen.append((threading.active_count(), mp_context.get_start_method()))
                super().__init__(*args, mp_context=mp_context, **kwargs)

        monkeypatch.setattr(
            runner_module.concurrent.futures, "ProcessPoolExecutor", Recording
        )
        threads = threading.active_count()
        truth = np.random.default_rng(0).uniform(1.0, 7.0, size=(3, 40))
        run_fleet_sharded(
            truth, SENSOR, 0.5, workers=workers, dropout=0.2, **_fleet_kwargs()
        )
        assert seen == ([(1, "fork")] if workers > 1 else [])
        assert threading.active_count() == threads

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_block_is_as_large_as_the_truth(self, monkeypatch, workers):
        created = []
        create = ShmArena._create

        def recording(arena, nbytes):
            created.append(nbytes)
            return create(arena, nbytes)

        monkeypatch.setattr(ShmArena, "_create", recording)
        truth = np.random.default_rng(0).uniform(1.0, 7.0, size=(4, 4_000))
        run_fleet_sharded(
            truth, SENSOR, 0.5, workers=workers, streaming=True, with_devices=False,
            dropout=0.1, **_fleet_kwargs(),
        )
        assert created
        assert max(created) < truth.nbytes // 2

    def test_a_pool_needs_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        truth = np.random.default_rng(0).uniform(1.0, 7.0, size=(3, 40))
        with pytest.raises(ConfigurationError, match="fork"):
            run_fleet_sharded(truth, SENSOR, 0.5, workers=2, **_fleet_kwargs())
        inline = run_fleet_sharded(truth, SENSOR, 0.5, workers=1, **_fleet_kwargs())
        assert inline.server.epochs == [0, 1, 2]


def _exit_hard(task):  # pragma: no cover - runs (briefly) in the worker
    os._exit(17)
