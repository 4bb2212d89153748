"""Zero-copy shared-memory transport for the sharded fleet.

Every sharded run — inline (``workers=1``) or pooled — moves its arrays
through named :class:`multiprocessing.shared_memory.SharedMemory`
blocks: the coordinator copies each shard's input slices into blocks
once, workers attach by name and write their outputs into
coordinator-allocated result buffers, and only O(1) metadata (block
names, shapes, offsets) plus the small trace artifacts cross the pool
pipe.

Two pieces:

:class:`ShmArrayRef`
    A picklable ndarray handle — ``(block name, shape, dtype, byte
    offset)``.  ``sub()`` derives views into a packed block, which is
    how one block carries every shard's slice (or every shard's output
    region) without one-block-per-array proliferation.

:class:`ShmArena`
    The owner of the blocks and the single place that unlinks them.
    The coordinator creates an arena per run inside ``try/finally`` (so
    a worker crash — including ``BrokenProcessPool`` — still unlinks
    every block) and a :func:`weakref.finalize` backstop covers paths
    that never reach the ``finally``.  The finalizer is pid-guarded:
    forked pool workers inherit the arena object, and *their* interpreter
    shutdown must never unlink blocks the coordinator still owns.

One mapping per block per process: :func:`attach_array` in the process
that created a block (an inline ``workers=1`` run) views the arena's own
handle instead of mapping the block a second time — a second mapping
doubles the block's share of the process's RSS.

Lifecycle note (POSIX semantics): ``unlink`` removes the *name*; live
mappings stay valid until closed.  The arena therefore keeps its own
handles open until :meth:`ShmArena.close`, and the coordinator copies
anything it must retain past ``close()`` (retain-mode server batches —
see ``donate=`` on :meth:`~repro.aggregation.server.AggregationServer.submit_array`).

Determinism note: block *names* are chosen by the stdlib (``name=None``),
not by this module — no randomness originates here, and names never feed
seed material; they are transport addresses only.
"""

from __future__ import annotations

import dataclasses
import os
import weakref
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ShmArrayRef", "ShmArena", "attach_array"]

#: Byte alignment for arrays packed into one block; 16 covers every
#: numpy scalar dtype and keeps gathers on natural boundaries.
_ALIGN = 16


def _aligned(nbytes: int) -> int:
    return (nbytes + _ALIGN - 1) & ~(_ALIGN - 1)


@dataclasses.dataclass(frozen=True)
class ShmArrayRef:
    """Picklable handle to an ndarray inside a named shared-memory block."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    offset: int = 0

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize

    def sub(self, offset_elements: int, shape: Tuple[int, ...]) -> "ShmArrayRef":
        """A sub-array ref ``offset_elements`` into this ref's data."""
        itemsize = np.dtype(self.dtype).itemsize
        return ShmArrayRef(
            name=self.name,
            shape=tuple(int(s) for s in shape),
            dtype=self.dtype,
            offset=self.offset + int(offset_elements) * itemsize,
        )

    def attach(self) -> np.ndarray:
        """Materialize the array in this process (see :func:`attach_array`)."""
        return attach_array(self)


# Process-local attached handles, keyed by block name.  Workers attach
# each block once per process regardless of how many refs point into it;
# the creating process resolves refs against the arena's own handles
# (``_OWNED``) and never goes through this table.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}

# Blocks of live arenas, keyed by name, with the creating pid: a forked
# child inherits this table but must attach by name like any worker.
_OWNED: Dict[str, Tuple[int, shared_memory.SharedMemory]] = {}


def attach_array(ref: ShmArrayRef) -> np.ndarray:
    """Attach ``ref``'s block by name and return the ndarray view.

    In the process whose live arena created the block, the view is over
    the arena's own handle: no second mapping, no ``_ATTACHED`` entry.

    Tracker note: on CPython 3.11 an attach *also* registers the segment
    with the ``resource_tracker``.  That is harmless here — pool workers
    inherit the coordinator's tracker (fork and spawn both), whose cache
    is a set, so the re-registration is a no-op and the single
    unregister at arena unlink leaves the tracker clean.  Do NOT
    unregister on attach: with a shared tracker that would strip the
    *creator's* registration and the unlink-time unregister would fail.
    """
    owner_pid, handle = _OWNED.get(ref.name, (None, None))
    if owner_pid != os.getpid():
        handle = _ATTACHED.get(ref.name)
        if handle is None:
            handle = shared_memory.SharedMemory(name=ref.name)
            _ATTACHED[ref.name] = handle
    return np.ndarray(
        ref.shape, dtype=np.dtype(ref.dtype), buffer=handle.buf, offset=ref.offset
    )


def _unlink_blocks(blocks: List[shared_memory.SharedMemory], owner_pid: int) -> None:
    """Finalizer body: close+unlink every block — in the owner only.

    Module-level (not a bound method) so :func:`weakref.finalize` holds
    no reference back to the arena, and pid-guarded so a forked worker's
    interpreter shutdown cannot unlink the coordinator's live blocks.
    """
    if os.getpid() != owner_pid:
        blocks.clear()
        return
    while blocks:
        block = blocks.pop()
        _OWNED.pop(block.name, None)
        try:
            block.close()
        except BufferError:  # pragma: no cover
            pass
        try:
            block.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class ShmArena:
    """Owns a run's shared-memory blocks; guarantees they are unlinked.

    Usable as a context manager; :meth:`close` is idempotent and also
    runs from a :func:`weakref.finalize` backstop if the arena is
    dropped without reaching the ``finally``.
    """

    def __init__(self) -> None:
        self._blocks: List[shared_memory.SharedMemory] = []
        self._owner_pid = os.getpid()
        self._finalizer = weakref.finalize(
            self, _unlink_blocks, self._blocks, self._owner_pid
        )

    # -- allocation ----------------------------------------------------
    def _create(self, nbytes: int) -> shared_memory.SharedMemory:
        block = shared_memory.SharedMemory(create=True, size=nbytes)
        self._blocks.append(block)
        _OWNED[block.name] = (self._owner_pid, block)
        return block

    def allocate(self, shape: Sequence[int], dtype) -> ShmArrayRef:
        """Create one zero-initialized block holding an array of ``shape``."""
        shape = tuple(int(s) for s in shape)
        dt = np.dtype(dtype)
        nbytes = max(int(np.prod(shape, dtype=np.int64)) * dt.itemsize, 1)
        # Freshly created segments are zero pages (ftruncate semantics),
        # so no explicit memset pass is needed — or wanted, at 500k
        # devices that would be a full write over the buffer.
        block = self._create(nbytes)
        return ShmArrayRef(name=block.name, shape=shape, dtype=dt.str)

    def share(self, array: np.ndarray) -> ShmArrayRef:
        """Copy ``array`` into a new block and return its ref."""
        array = np.ascontiguousarray(array)
        ref = self.allocate(array.shape, array.dtype)
        self.view(ref)[...] = array
        return ref

    def pack(self, arrays: Sequence[np.ndarray]) -> List[ShmArrayRef]:
        """Copy several arrays into ONE block; one ref per array.

        This is how the coordinator ships all shards' input slices in a
        single segment: one block for every shard's truth slice, one for
        every reporting slice, instead of blocks × shards.
        """
        arrays = [np.ascontiguousarray(a) for a in arrays]
        offsets: List[int] = []
        total = 0
        for a in arrays:
            offsets.append(total)
            total += _aligned(max(a.nbytes, 1))
        block = self._create(max(total, 1))
        refs: List[ShmArrayRef] = []
        for a, off in zip(arrays, offsets):
            ref = ShmArrayRef(
                name=block.name, shape=a.shape, dtype=a.dtype.str, offset=off
            )
            self.view(ref)[...] = a
            refs.append(ref)
        return refs

    # -- access --------------------------------------------------------
    def view(self, ref: ShmArrayRef) -> np.ndarray:
        """An ndarray over one of *this arena's* blocks (creator side)."""
        for block in self._blocks:
            if block.name == ref.name:
                return np.ndarray(
                    ref.shape,
                    dtype=np.dtype(ref.dtype),
                    buffer=block.buf,
                    offset=ref.offset,
                )
        raise KeyError(f"block {ref.name!r} is not owned by this arena")

    @property
    def block_names(self) -> List[str]:
        """Names of the blocks currently owned (for leak assertions)."""
        return [block.name for block in self._blocks]

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive and not self._blocks

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Close and unlink every owned block.  Idempotent."""
        # detach() via the finalizer so close() and the GC/atexit backstop
        # share one code path (the finalizer runs at most once).
        self._finalizer()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
