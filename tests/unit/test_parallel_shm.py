"""Shared-memory arena lifecycle: leaks are the failure mode that matters.

POSIX shared memory persists past process death — a crashed worker or a
coordinator that skips its ``finally`` leaves ``/dev/shm`` segments
behind until reboot.  These tests pin the guarantees the arena makes:
every block is unlinked on the normal path, on the worker-crash path
(``BrokenProcessPool``), and on the in-worker-exception path; a forked
child's interpreter shutdown never unlinks the coordinator's blocks
(the pid-guarded finalizer); the ref/attach plumbing round-trips
arrays bit-exactly; and an attach in the creating process reuses the
arena's own mapping instead of mapping the block a second time.
"""

import os
import tracemalloc

import numpy as np
import pytest
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

from repro.errors import ConfigurationError
from repro.mechanisms import SensorSpec
from repro.parallel import run_fleet_sharded
from repro.parallel import shm as shm_module
from repro.parallel.shm import ShmArena, ShmArrayRef, attach_array

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


def _shm_snapshot():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        pytest.skip("needs /dev/shm to observe leaks")
    return set(os.listdir("/dev/shm"))


class TestArenaBasics:
    def test_share_round_trips_bit_exact(self):
        with ShmArena() as arena:
            data = np.random.default_rng(0).standard_normal((7, 13))
            ref = arena.share(data)
            np.testing.assert_array_equal(arena.view(ref), data)
            np.testing.assert_array_equal(attach_array(ref), data)

    def test_pack_is_one_block_many_refs(self):
        with ShmArena() as arena:
            arrays = [
                np.arange(5, dtype=np.int64),
                np.full((3, 4), 2.5),
                np.array([True, False, True]),
            ]
            refs = arena.pack(arrays)
            assert len({r.name for r in refs}) == 1
            assert len(arena.block_names) == 1
            for ref, original in zip(refs, arrays):
                np.testing.assert_array_equal(arena.view(ref), original)

    def test_pack_copies_strided_slices_without_a_temporary(self):
        # The coordinator packs column slices of an (epochs, devices)
        # matrix: each must land bit-exact, copied once into the block.
        # NumPy reports its buffers to tracemalloc and the block is not
        # a tracked allocation, so a contiguous temporary of any slice
        # would show in the peak.
        matrix = np.random.default_rng(1).standard_normal((16, 40_000))
        slices = [matrix[:, start : start + 10_000] for start in range(0, 40_000, 10_000)]
        assert not slices[0].flags.c_contiguous
        with ShmArena() as arena:
            tracemalloc.start()
            try:
                refs = arena.pack(slices)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < slices[0].nbytes
            for ref, original in zip(refs, slices):
                assert arena.view(ref).flags.c_contiguous
                assert arena.view(ref).tobytes() == np.ascontiguousarray(original).tobytes()

    def test_sub_ref_addresses_a_slice(self):
        with ShmArena() as arena:
            data = np.arange(24, dtype=np.float64)
            ref = arena.share(data)
            window = ref.sub(6, (4,))
            np.testing.assert_array_equal(arena.view(window), data[6:10])

    def test_close_unlinks_and_is_idempotent(self):
        arena = ShmArena()
        ref = arena.share(np.zeros(4))
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
            ref = arena.share(np.arange(12.0)).sub(2, (5,))
            attached = attach_array(ref)
            assert np.shares_memory(attached, arena.view(ref))
            np.testing.assert_array_equal(attached, np.arange(2.0, 7.0))
            assert not shm_module._ATTACHED
            del attached

    def test_allocate_is_zero_initialized(self):
        with ShmArena() as arena:
            ref = arena.allocate((64,), np.int64)
            assert not arena.view(ref).any()


class TestForkSafety:
    def test_forked_child_close_does_not_unlink(self):
        # Pool workers inherit the arena object over fork; their exit
        # (normal or not) must never unlink the coordinator's blocks.
        arena = ShmArena()
        ref = arena.share(np.arange(6.0))
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


def _exit_hard(task):  # pragma: no cover - runs (briefly) in the worker
    os._exit(17)
