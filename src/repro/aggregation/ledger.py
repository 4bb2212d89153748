"""The server's disclosure ledger: per-device running sums of claimed loss.

:class:`DisclosureLedger` is the state behind
:meth:`~repro.aggregation.AggregationServer.worst_case_disclosure` — a
conservative server-side mirror of every device's on-device budget
(the authoritative accountant lives on the device).  It is one float64
total column plus one bool "charged" column, and the ledger's first
charge fixes what indexes them:

* **slots** — a per-id charge (:meth:`~DisclosureLedger.charge`,
  :meth:`~DisclosureLedger.record_claimed_losses`) keys the columns by
  the device's slot in a
  :class:`~repro.aggregation.device_index.DeviceIndex`.  The ingestion
  service shares one index between its guard chain and this ledger, so
  an admitted batch arrives as a
  :class:`~repro.aggregation.device_index.SlotIds` column and is charged
  with one ``np.add.at``; ``str`` ids are interned first, and slots of
  another index are translated through a cached slot-to-slot map.
* **fleet indexes** — :meth:`~DisclosureLedger.record_report_counts`
  keys them by fleet device index ``i``, whose id is
  :func:`fleet_device_id` ``(i)``, so a fleet runner charges a whole
  run's composition bound with one array add and no per-device Python
  objects.

A charge of the other kind raises :class:`ConfigurationError` before
anything changes, and so does reading
:attr:`~DisclosureLedger.device_index` from a fleet-keyed ledger: no
server mixes fleet-run charges with per-id ones.  Either way every
total is bit-identical to a plain per-id dict walk, because
``np.add.at`` adds each device's charges in batch order.

Every entry point fails closed on a negative or NaN claimed loss: a
negative loss would lower a device's bound, a NaN would poison it for
good.  ``+inf`` (a mechanism that claims no finite guarantee) is a
valid charge.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .device_index import DeviceIndex, SlotIds, grow_column

__all__ = ["DisclosureLedger", "fleet_device_id", "check_claimed_loss"]

_PREFIX = "dev-"
#: Digits of the largest index a fleet-keyed column could hold (int64).
_MAX_DIGITS = 18


def fleet_device_id(i: int) -> str:
    """The device id of fleet device index ``i`` (``dev-0042``)."""
    return f"{_PREFIX}{i:04d}"


def _canonical_index(device_id: object) -> Optional[int]:
    """``i`` if ``device_id == fleet_device_id(i)``, else ``None``.

    ``dev-042``, ``dev-00042`` and non-ASCII digits (``dev-٠٠٤٢``) are
    not canonical: ``int()`` would accept them, the round trip does not.
    An index too long for any array is treated as non-canonical, so a
    hostile thousand-digit id never reaches ``int()``.
    """
    if not isinstance(device_id, str) or not device_id.startswith(_PREFIX):
        return None
    digits = device_id[len(_PREFIX):]
    if len(digits) > _MAX_DIGITS or not (digits.isascii() and digits.isdigit()):
        return None
    i = int(digits)
    return i if fleet_device_id(i) == device_id else None


def check_claimed_loss(loss: object) -> float:
    """``loss`` as a float, or :class:`ConfigurationError` if negative/NaN."""
    value = float(loss)
    if math.isnan(value) or value < 0.0:
        raise ConfigurationError(
            f"claimed loss must be a nonnegative number, got {loss!r}"
        )
    return value


class DisclosureLedger:
    """Running per-device claimed-loss totals (the composition bound).

    ``device_index`` is the slot table a per-id charge keys the columns
    by; pass the one the ingestion guards use so admitted batches need
    no translation.
    """

    __slots__ = ("_index", "_total", "_charged", "_foreign", "_fleet")

    def __init__(self, device_index: Optional[DeviceIndex] = None) -> None:
        self._index = device_index if device_index is not None else DeviceIndex()
        self._total = np.zeros(0, dtype=np.float64)
        self._charged = np.zeros(0, dtype=bool)
        #: ``(table, remap)``: for each slot of the last other table
        #: charged, own slot + 1 (``0`` until first seen).
        self._foreign: Optional[Tuple[DeviceIndex, np.ndarray]] = None
        #: The key, fixed by the first charge: ``None`` until then,
        #: ``True`` for fleet indexes, ``False`` for slots.
        self._fleet: Optional[bool] = None

    @property
    def device_index(self) -> DeviceIndex:
        """The slot table a per-id charge keys the columns by."""
        self._check_key(fleet=False)
        return self._index

    def _check_key(self, fleet: bool) -> None:
        """Raise unless the columns are unkeyed or keyed the ``fleet`` way."""
        if self._fleet is (not fleet):
            raise ConfigurationError(
                "this disclosure ledger is keyed by device slot (per-id charges); "
                "it takes no record_report_counts"
                if fleet
                else "this disclosure ledger is keyed by fleet index "
                "(record_report_counts); it takes no per-id charges or slot table"
            )

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, device_ids: Sequence[str], claimed_loss: float) -> None:
        """Add ``claimed_loss`` once per id in ``device_ids``, in order."""
        loss = check_claimed_loss(claimed_loss)
        self._check_key(fleet=False)
        if len(device_ids) == 1:
            (device_id,) = device_ids
            slot = self._index.slot_of(device_id)
            if slot is None:
                slot = int(self._index.intern((device_id,))[0])
            if slot >= self._total.size:
                self._reserve()
            self._total[slot] += loss
            self._charged[slot] = True
            self._fleet = False
            return
        self._charge_slots(self._own_slots(device_ids), loss)

    def record_claimed_losses(self, losses: Mapping[str, float]) -> None:
        """Add each id's total loss; all values are checked before any add."""
        checked = [
            (device_id, check_claimed_loss(loss)) for device_id, loss in losses.items()
        ]
        self._check_key(fleet=False)
        self._charge_slots(
            self._index.intern([device_id for device_id, _ in checked]),
            np.array([loss for _, loss in checked], dtype=np.float64),
        )

    def record_report_counts(
        self, report_counts: np.ndarray, claimed_loss: float
    ) -> None:
        """Charge fleet device ``i`` with ``report_counts[i] * claimed_loss``.

        Keys the columns by fleet index (growing them to
        ``len(report_counts)``).  Devices with a zero count are not
        charged and not tracked, exactly as if their ids were never
        named.
        """
        loss = check_claimed_loss(claimed_loss)
        counts = np.asarray(report_counts)
        if counts.ndim != 1 or not (
            np.issubdtype(counts.dtype, np.integer) or counts.dtype == bool
        ):
            raise ConfigurationError(
                "report_counts must be a 1-D integer array indexed by fleet device"
            )
        if counts.size and counts.min() < 0:
            raise ConfigurationError("report_counts must be nonnegative")
        self._check_key(fleet=True)
        self._fleet = True
        n = counts.size
        self._total = grow_column(self._total, n)
        self._charged = grow_column(self._charged, n)
        charged = counts > 0
        with np.errstate(invalid="ignore"):  # 0 * inf on uncharged rows
            np.add(
                self._total[:n],
                counts * loss,
                out=self._total[:n],
                where=charged,
            )
        self._charged[:n] |= charged

    def _charge_slots(self, slots: np.ndarray, losses) -> None:
        """Add ``losses`` (one, or one per slot) at ``slots``, in order."""
        self._reserve()
        np.add.at(self._total, slots, losses)
        self._charged[slots] = True
        self._fleet = False

    def _own_slots(self, device_ids: Sequence[str]) -> np.ndarray:
        """Slots of ``device_ids`` in the ledger's table, interning unseen ids."""
        if not isinstance(device_ids, SlotIds):
            return self._index.intern(device_ids)
        if device_ids.table is self._index:
            return device_ids.resolve()
        table, slots = device_ids.table, device_ids.resolve()
        if self._foreign is None or self._foreign[0] is not table:
            self._foreign = (table, np.zeros(0, dtype=np.intp))
        remap = grow_column(self._foreign[1], len(table))
        self._foreign = (table, remap)
        own = remap[slots] - 1
        missing = own < 0
        if missing.any():
            # Intern in first-appearance order, as a str walk would.
            unseen, first = np.unique(slots[missing], return_index=True)
            unseen = unseen[np.argsort(first)]
            remap[unseen] = 1 + self._index.intern(
                [table.id_of(slot) for slot in unseen.tolist()]
            )
            own = remap[slots] - 1
        return own

    def _reserve(self) -> None:
        """Grow the columns to cover every slot of the table."""
        self._total = grow_column(self._total, len(self._index))
        self._charged = grow_column(self._charged, len(self._index))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def total(self, device_id: str) -> float:
        """The device's running total (``0.0`` for an id never charged)."""
        if self._fleet:
            i = _canonical_index(device_id)
        else:
            i = self._index.slot_of(device_id)
        if i is None or i >= self._total.size:
            return 0.0
        return float(self._total[i])

    def __len__(self) -> int:
        """Devices charged (a Python ``int``)."""
        return int(np.count_nonzero(self._charged))

    def items(self) -> Iterator[Tuple[str, float]]:
        """``(id, total)`` pairs in key order: by slot (the order the
        devices were first seen), or by ascending fleet index."""
        id_of = fleet_device_id if self._fleet else self._index.id_of
        for i in np.flatnonzero(self._charged).tolist():
            yield id_of(i), float(self._total[i])
