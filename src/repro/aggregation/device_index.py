"""Device-id interning: one dense integer slot per device, for life.

A :class:`DeviceIndex` is an append-only table ``id -> slot`` and
``slot -> id``.  Every stateful layer behind the ingestion boundary —
the service's budget and rate-limit guards and the server's disclosure
ledger — keeps its per-device state as a numpy column indexed by slot,
so a batch is ruled on and charged with a handful of array operations
instead of one ``str``-keyed dict probe per report.  A device's slot
never changes, so the columns of everyone sharing one table line up.

Ids are turned into slots once per request, at admission:

* :meth:`DeviceIndex.lookup` takes ``str`` ids (JSONL, in-process
  callers);
* :meth:`DeviceIndex.lookup_raw` takes a binary frame's ``S`` id
  column and probes its raw bytes in a numpy hash table, a whole
  column at a time, so a device seen before is found without its id
  being decoded; only new ids are validated and decoded.

A lookup never appends an id.  An id it has not seen gets a
*provisional* slot — ``len(table)``, ``len(table) + 1``, ... in order
of first appearance in the batch — and the returned :class:`SlotIds`
appends it only on :meth:`SlotIds.resolve`, which the guard chain
calls when an admitted batch commits.  A refused batch therefore
allocates no slot.  If another batch appended ids in between, the
provisional slots are remapped to the final ones then.

The table is shared across threads — the service commits on its event
loop while the server folds on an executor thread — so appends take a
lock; reads need none, because an id is published in the ``id -> slot``
map only after its slot exists.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

__all__ = ["DeviceIndex", "SlotIds", "grow_column"]


class _Fresh:
    """The ids one lookup had not seen, in first-appearance order.

    Shared by a :class:`SlotIds` and every subset taken from it, so the
    ids are appended (and any remap worked out) once for all of them.
    """

    __slots__ = ("base", "ids", "remap", "done")

    def __init__(self, base: int, ids: List[str]):
        self.base = base
        self.ids = ids
        #: Final slot of ``ids[j]``; ``None`` while they are provisional
        #: or when the provisional slots turned out to be final.
        self.remap: Optional[np.ndarray] = None
        self.done = False


def _pack(column: np.ndarray) -> np.ndarray:
    """An ``S{w}`` column as ``(n, ceil(w / 8))`` little-endian uint64
    words, NUL-padded: the key a row's id bytes are matched on."""
    words = -(-column.dtype.itemsize // 8)
    return column.astype(f"S{8 * words}").view("<u8").reshape(column.size, words)


#: Table positions per row of ``_ByteTable.words`` (a power of two).
_POSITIONS = 16


def _multipliers(n: int) -> np.ndarray:
    """``n`` random odd 64-bit hash multipliers."""
    return np.frombuffer(os.urandom(8 * n), dtype="<u8") | np.uint64(1)


def _strict_utf8(device_id: str) -> bool:
    try:
        device_id.encode("utf-8")
        return True
    except UnicodeEncodeError:
        return False


class _ByteTable:
    """A direct-mapped table from an id's packed UTF-8 bytes to its
    slot, probed for a whole ``S`` column in a few array operations.

    It holds slots ``[0, placed)``.  ``words[slot]`` is the slot's
    packed id (zero for ids no ``S`` row can spell: empty, not UTF-8,
    ending in NUL), and ``table[hash(words)]`` holds a slot whose id
    hashes there (-1: none).  Holding at most one id per position keeps
    the probe loop-free: a row finds its slot when the id at its
    position has its bytes; otherwise — an empty position, a position
    another id took (16 positions per row of ``words`` keep that near
    3% of rows), or an id appended since the table caught up — it
    falls back to the ``str`` map.  The hash multipliers are random per
    table, so no client can choose ids that collide; they decide only
    how fast a row resolves, never which slot an id gets.
    """

    __slots__ = ("words", "table", "mult", "placed")

    def __init__(self) -> None:
        self.words = np.zeros((64, 1), dtype=np.uint64)
        self.table = np.full(_POSITIONS * 64, -1, dtype=np.int32)
        self.mult = _multipliers(1)
        self.placed = 0

    def positions(self, keys: np.ndarray) -> np.ndarray:
        h = 0
        for j in range(keys.shape[1]):
            # Fold each word's high half into its low half first: ids
            # that differ only in their last bytes (a word's high bits)
            # would otherwise share the product's top bits.
            word = keys[:, j]
            h = h + (word ^ (word >> np.uint64(32))) * self.mult[j]
        # The top bits of a uint64 fit an int64: a free view, no cast.
        return (h >> np.uint64(65 - self.table.size.bit_length())).view(np.intp)

    def probe(self, keys: np.ndarray) -> np.ndarray:
        """Each key's slot where its position holds it, else -1."""
        width = self.words.shape[1]
        held = self.table[self.positions(keys[:, :width])]
        same = held >= 0
        if keys.shape[1] > width:
            # Bytes past the longest id held: no id here can match.
            same &= ~keys[:, width:].any(axis=1)
        words = self.words[np.maximum(held, 0)]
        for j in range(min(width, keys.shape[1])):
            same &= words[:, j] == keys[:, j]
        for j in range(keys.shape[1], width):
            same &= words[:, j] == 0
        held[~same] = -1
        return held.astype(np.intp)

    def catch_up(self, ids: List[str]) -> "_ByteTable":
        """This table, or a grown copy, also holding the slots of
        ``ids[placed:]`` (``ids`` extends the list it was built from)."""
        new = ids[self.placed:]
        try:
            raw = [device_id.encode("utf-8") for device_id in new]
        except UnicodeEncodeError:  # a lone surrogate: never on the binary wire
            raw = [d.encode("utf-8", "replace") for d in new]
        column = np.array(raw, dtype="S")
        # The column drops trailing NULs, so an id ending in NUL comes
        # out shorter than its bytes.
        lengths = np.fromiter(map(len, raw), np.intp, len(raw))
        spelled = np.char.str_len(column) == lengths
        spelled &= column != b""
        if b"?" in b"".join(raw):  # maybe a replaced surrogate
            spelled &= [_strict_utf8(device_id) for device_id in new]
        keys = _pack(column[spelled])
        held = self.placed + np.flatnonzero(spelled)
        words, mult, table = self.words, self.mult, self.table
        rows, width = words.shape[0], max(words.shape[1], keys.shape[1])
        while rows < len(ids):
            rows *= 2
        if (rows, width) != words.shape:
            words = np.zeros((rows, width), dtype=np.uint64)
            words[: self.words.shape[0], : self.words.shape[1]] = self.words
        if width > mult.size:
            mult = np.concatenate([mult, _multipliers(width - mult.size)])
        # Rows first: a probe meeting one of these slots in the table
        # finds its bytes.  (A probe still on the old, narrower
        # ``words`` reads zeros there and falls back to the str map.)
        words[held, : keys.shape[1]] = keys
        if rows != self.words.shape[0]:
            # Positions per row fixed: rebuilt whenever the rows grow.
            table = np.full(_POSITIONS * rows, -1, dtype=np.int32)
            held = np.flatnonzero(words.any(axis=1))
        out = self
        if words is not self.words or mult is not self.mult:
            out = _ByteTable()
            out.words, out.table, out.mult = words, table, mult
        pos = out.positions(words[held])
        free = table[pos] < 0
        # Of several ids sharing a free position any one may keep it:
        # the others find it taken, which only sends them to the map.
        table[pos[free]] = held[free]
        out.placed = len(ids)
        return out


class DeviceIndex:
    """Append-only ``device id <-> slot`` table (see module docstring)."""

    __slots__ = ("_slot", "_ids", "_bytes", "_lock")

    def __init__(self) -> None:
        self._slot: Dict[str, int] = {}
        self._ids: List[str] = []
        self._bytes = _ByteTable()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ids)

    def id_of(self, slot: int) -> str:
        return self._ids[slot]

    def slot_of(self, device_id: str) -> Optional[int]:
        """The id's slot, or ``None`` if it was never appended."""
        return self._slot.get(device_id)

    # ------------------------------------------------------------------
    # Lookups (side-effect free)
    # ------------------------------------------------------------------
    def lookup(self, device_ids: Sequence[str]) -> "SlotIds":
        """Slots of ``str`` ids; unseen ids get provisional slots."""
        if isinstance(device_ids, SlotIds) and device_ids.table is self:
            return device_ids
        ids = list(device_ids)
        base = len(self._ids)
        found = list(map(self._slot.get, ids))
        missing = found.count(None)
        if not missing:
            # Slots are in hand as Python ints, so a set answers
            # ``distinct`` for less than the numpy sort would cost.
            distinct = len(set(found)) == len(found)
            return SlotIds(self, np.array(found, dtype=np.intp), distinct=distinct)
        if missing == len(ids):
            slots = np.empty(len(ids), dtype=np.intp)
            return self._provisional(slots, np.arange(len(ids)), ids, base, True)[0]
        slots = np.array([-1 if s is None else s for s in found], dtype=np.intp)
        # A slot past ``base`` was appended since: provisional as well.
        rows = np.flatnonzero((slots < 0) | (slots >= base))
        return self._provisional(
            slots, rows, [ids[i] for i in rows.tolist()], base, True
        )[0]

    def lookup_raw(self, column: np.ndarray) -> "SlotIds":
        """Slots of a binary frame's ``S`` id column.

        Rows are matched by their bytes (trailing NULs are padding, as
        in ``column.tolist()``); only rows the byte table cannot place
        are decoded and looked up by ``str`` — an invalid one raises
        :class:`UnicodeDecodeError`.  When over 1/16 of a column turns
        out to name ids the byte table lags behind on, it catches up
        with every id appended since, so a batch of first contacts
        costs no byte-table upkeep and a fleet seen before resolves
        without decoding.
        """
        base = len(self._ids)
        if self._bytes.placed:
            slots = self._bytes.probe(_pack(column))
            rows = np.flatnonzero((slots < 0) | (slots >= base))
            raw = column[rows].tolist()
        else:  # nothing to find: a service that has only met new ids
            slots = np.full(column.size, -1, dtype=np.intp)
            rows = np.arange(column.size)
            raw = column.tolist()
        ids = [r.decode("utf-8") for r in raw]
        out, known = self._provisional(slots, rows, ids, base, False)
        if 16 * known > column.size:
            with self._lock:
                if self._bytes.placed < len(self._ids):
                    self._bytes = self._bytes.catch_up(self._ids)
        return out

    def _provisional(
        self,
        slots: np.ndarray,
        rows: np.ndarray,
        ids: List[str],
        base: int,
        missing: bool,
    ) -> Tuple["SlotIds", int]:
        """Fill ``slots[rows]`` for ``ids``: the slots of ids appended
        before ``len(self) == base``, else provisional slots from
        ``base`` on, in first-appearance order (:meth:`SlotIds.resolve`
        remaps any that were appended meanwhile).  ``missing``: treat
        every one of ``ids`` as unseen (the caller found none of them
        in the map before ``base``).  Also returns how many of ``ids``
        were appended already."""
        if not ids:
            return SlotIds(self, slots), 0
        if not missing:
            found = list(map(self._slot.get, ids))
            if None not in found and max(found) < base:  # rows a probe missed
                slots[rows] = found
                return SlotIds(self, slots), len(ids)
            missing = found.count(None) == len(found)
        fresh = dict.fromkeys(ids)
        if missing and len(fresh) == len(ids):
            # A first-contact batch: every such id new, none repeated.
            slots[rows] = np.arange(base, base + len(ids))
            out = SlotIds(self, slots, _Fresh(base, ids))
            if len(ids) == slots.size:
                out._distinct = True
            return out, 0
        get = (lambda device_id: None) if missing else self._slot.get
        provisional: Dict[str, int] = {}
        filled = []
        for device_id in ids:
            slot = get(device_id)
            if slot is None or slot >= base:
                slot = provisional.setdefault(device_id, base + len(provisional))
            filled.append(slot)
        slots[rows] = filled
        known = len(filled) - sum(1 for slot in filled if slot >= base)
        fresh_ids = _Fresh(base, list(provisional)) if provisional else None
        return SlotIds(self, slots, fresh_ids), known

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    def intern(self, device_ids: Sequence[str]) -> np.ndarray:
        """Final slots of ``device_ids``, appending unseen ids in order."""
        return self.lookup(device_ids).resolve()

    def _append(self, fresh: _Fresh) -> None:
        """Give each of ``fresh.ids`` its final slot (once)."""
        with self._lock:
            if fresh.done:
                return
            new = fresh.ids
            if len(self._ids) != fresh.base:  # else none was appended since
                new = [d for d in new if d not in self._slot]
            start = len(self._ids)
            self._ids.extend(new)
            # Published last: an id in ``_slot`` always has its slot.
            self._slot.update(zip(new, range(start, len(self._ids))))
            if start != fresh.base or len(new) != len(fresh.ids):
                # Another batch appended since the lookup: the
                # provisional slots are taken; map each id to its own.
                fresh.remap = np.fromiter(
                    map(self._slot.__getitem__, fresh.ids),
                    dtype=np.intp,
                    count=len(fresh.ids),
                )
            fresh.done = True


class SlotIds(Sequence):
    """A batch's device ids as slots of one :class:`DeviceIndex`.

    Iterates, indexes and compares (with lists, tuples and other
    ``SlotIds``) as the ``str`` ids it stands for, so it can travel in a
    request wherever a list of ids did.  :attr:`provisional` is the
    check-time slot column; :meth:`resolve` gives the final one, appending
    the batch's unseen ids to the table the first time.
    """

    __slots__ = ("table", "_slots", "_fresh", "_distinct")

    def __init__(
        self,
        table: DeviceIndex,
        slots: np.ndarray,
        fresh: Optional[_Fresh] = None,
        distinct: Optional[bool] = None,
    ):
        self.table = table
        self._slots = slots
        self._fresh = fresh
        self._distinct = distinct

    @property
    def provisional(self) -> np.ndarray:
        return self._slots

    def resolve(self) -> np.ndarray:
        """The final slot column, appending the batch's unseen ids."""
        fresh = self._fresh
        if fresh is not None:
            self.table._append(fresh)
            if fresh.remap is not None:
                slots = self._slots.copy()
                mine = slots >= fresh.base
                slots[mine] = fresh.remap[slots[mine] - fresh.base]
                self._slots = slots
            self._fresh = None
        return self._slots

    @property
    def distinct(self) -> bool:
        """Whether no device appears twice in the batch."""
        if self._distinct is None:
            ordered = np.sort(self._slots)
            self._distinct = not bool((ordered[1:] == ordered[:-1]).any())
        return self._distinct

    def take(self, keep: np.ndarray) -> "SlotIds":
        """The ids at positions ``keep`` (an ascending index array)."""
        return SlotIds(
            self.table, self._slots[keep], self._fresh, self._distinct or None
        )

    def _id(self, slot: int) -> str:
        fresh = self._fresh
        if fresh is not None and slot >= fresh.base:
            return fresh.ids[slot - fresh.base]
        return self.table._ids[slot]

    def __len__(self) -> int:
        return int(self._slots.size)

    def __iter__(self) -> Iterator[str]:
        if self._fresh is None:
            return map(self.table._ids.__getitem__, self._slots.tolist())
        return map(self._id, self._slots.tolist())

    def __getitem__(self, i: Union[int, slice]):
        if isinstance(i, slice):
            return SlotIds(self.table, self._slots[i], self._fresh)
        return self._id(int(self._slots[i]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (SlotIds, list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SlotIds({list(self)!r})"


def grow_column(column: np.ndarray, n: int) -> np.ndarray:
    """``column`` if it holds ``n`` entries, else a zero-padded copy
    with room for at least ``n`` (doubling, so growth is amortized)."""
    if n <= column.size:
        return column
    grown = np.zeros(max(n, 2 * column.size), dtype=column.dtype)
    grown[: column.size] = column
    return grown
