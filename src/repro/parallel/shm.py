"""Shared-memory outputs and held inputs for the sharded fleet.

A sharded run never copies its inputs.  The coordinator *holds* the
truth matrix and the dropout masks where they already lie — in a
process-local table, before its pool forks — and each shard reads its
column slice of them in place: a forked pool worker through the
copy-on-write pages it inherited, an inline ``workers=1`` run in its own
process.  Both take the same path.  What the shards *write* goes into
coordinator-allocated named
:class:`multiprocessing.shared_memory.SharedMemory` blocks; only O(1)
metadata (tokens, block names, shapes, offsets) plus the small trace
artifacts cross the pool pipe.

Three pieces:

:class:`HeldRef`
    A picklable handle to columns of a held input — ``(token, start,
    stop)``.  ``attach()`` returns the view ``held[token][:, start:stop]``
    in whatever process reads it.  A held input is only visible to this
    process and to processes forked after :meth:`ShmArena.hold`, which is
    why the coordinator pins its pool to the ``fork`` start method.

:class:`ShmArrayRef`
    A picklable ndarray handle — ``(block name, shape, dtype, byte
    offset)``.  ``sub()`` derives views into a block, which is how one
    block carries every shard's output region without
    one-block-per-array proliferation.

:class:`ShmArena`
    The owner of a run's blocks and held inputs, and the single place
    that unlinks and drops them.  ``allocate`` creates an output block;
    ``hold`` enters inputs in the table without a copy.  The coordinator
    creates an arena per run inside ``try/finally`` (so a worker crash —
    including ``BrokenProcessPool`` — still unlinks every block and
    drops every held input) and a :func:`weakref.finalize` backstop
    covers paths that never reach the ``finally``.  The finalizer is
    pid-guarded: forked pool workers inherit the arena object, and
    *their* interpreter shutdown must never unlink blocks the
    coordinator still owns.

One mapping per block per process: :func:`attach_array` in the process
that created a block (an inline ``workers=1`` run) views the arena's own
handle instead of mapping the block a second time — a second mapping
doubles the block's share of the process's RSS.

Lifecycle note (POSIX semantics): ``unlink`` removes the *name*; live
mappings stay valid until closed.  The arena therefore keeps its own
handles open until :meth:`ShmArena.close`, and the coordinator copies
anything it must retain past ``close()`` (retain-mode server batches —
see ``donate=`` on :meth:`~repro.aggregation.server.AggregationServer.submit_array`).

Determinism note: block *names* are chosen by the stdlib (``name=None``)
and hold tokens by a counter, not by this module's callers — no
randomness originates here, and neither ever feeds seed material; they
are addresses only.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import weakref
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["HeldRef", "ShmArrayRef", "ShmArena", "attach_array"]

# Inputs held by live arenas, keyed by token.  A process forked after
# ``hold`` inherits the table with the arrays' pages (copy-on-write:
# the shards only read them, so nothing is copied).
_HELD: Dict[int, np.ndarray] = {}
_TOKENS = itertools.count()


@dataclasses.dataclass(frozen=True)
class HeldRef:
    """Picklable handle to columns ``start:stop`` of a held 2-D input."""

    token: int
    start: int = 0
    stop: Optional[int] = None

    def columns(self, start: int, stop: int) -> "HeldRef":
        """A ref to columns ``start:stop`` of the same held input."""
        return HeldRef(self.token, int(start), int(stop))

    def attach(self) -> np.ndarray:
        """The read-only view of the held columns in this process."""
        return _HELD[self.token][:, self.start : self.stop]


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


def _release(
    blocks: List[shared_memory.SharedMemory], held: List[int], owner_pid: int
) -> None:
    """Finalizer body: drop every held input and close+unlink every
    block — in the owner only.

    Module-level (not a bound method) so :func:`weakref.finalize` holds
    no reference back to the arena, and pid-guarded so a forked worker's
    interpreter shutdown cannot unlink the coordinator's live blocks.
    """
    if os.getpid() != owner_pid:
        blocks.clear()
        held.clear()
        return
    while held:
        _HELD.pop(held.pop(), None)
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
    """Owns a run's output blocks and held inputs; guarantees the blocks
    are unlinked and the inputs dropped.

    Usable as a context manager; :meth:`close` is idempotent and also
    runs from a :func:`weakref.finalize` backstop if the arena is
    dropped without reaching the ``finally``.
    """

    def __init__(self) -> None:
        self._blocks: List[shared_memory.SharedMemory] = []
        self._held: List[int] = []
        self._owner_pid = os.getpid()
        self._finalizer = weakref.finalize(
            self, _release, self._blocks, self._held, self._owner_pid
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

    def hold(self, arrays: Sequence[np.ndarray]) -> List[HeldRef]:
        """Hold ``arrays`` in place until :meth:`close`: one ref each.

        Nothing is copied.  Each array is entered, as a read-only view,
        in this process's table of held inputs; a ref's ``attach`` reads
        it here and in any process forked after this call.
        """
        refs = []
        for array in arrays:
            view = np.asarray(array).view()
            view.flags.writeable = False
            token = next(_TOKENS)
            _HELD[token] = view
            self._held.append(token)
            refs.append(HeldRef(token))
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
        return not self._finalizer.alive and not self._blocks and not self._held

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Close and unlink every owned block, drop every held input.
        Idempotent."""
        # detach() via the finalizer so close() and the GC/atexit backstop
        # share one code path (the finalizer runs at most once).
        self._finalizer()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
