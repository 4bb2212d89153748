"""The server's disclosure ledger: per-device running sums of claimed loss.

:class:`DisclosureLedger` is the state behind
:meth:`~repro.aggregation.AggregationServer.worst_case_disclosure` — a
conservative server-side mirror of every device's on-device budget
(the authoritative accountant lives on the device).  It keeps each
device id in exactly one of two stores:

* **dict store** — ``Dict[str, float]`` for arbitrary ids, charged one
  id at a time.  This is the only store an ingestion service ever
  touches: per-id input never allocates anything else.
* **dense store** — a float64 total column plus a bool "seen" column
  indexed by fleet device index ``i``, whose id is
  :func:`fleet_device_id` ``(i)``.  Only :meth:`record_report_counts`
  grows it, so a fleet runner charges a whole run's composition bound
  with one array add and no per-device Python objects.

Routing keeps every total bit-identical to a plain per-id dict walk: a
*canonical* id (one whose integer round-trips through
:func:`fleet_device_id`) inside the dense range is charged in the
column; when the dense range grows over a canonical id already in the
dict store, that entry moves into the column first, so the order of
additions is unchanged.  While the dense store is empty the per-id
paths are exactly the dict walk.

Every entry point fails closed on a negative or NaN claimed loss: a
negative loss would lower a device's bound, a NaN would poison it for
good.  ``+inf`` (a mechanism that claims no finite guarantee) is a
valid charge.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["DisclosureLedger", "fleet_device_id", "check_claimed_loss"]

_PREFIX = "dev-"
#: Digits of the largest index a dense column could hold (int64).
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
    """Running per-device claimed-loss totals (the composition bound)."""

    __slots__ = ("_by_id", "_dense", "_seen")

    def __init__(self) -> None:
        self._by_id: Dict[str, float] = {}
        self._dense = np.zeros(0, dtype=np.float64)
        self._seen = np.zeros(0, dtype=bool)

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, device_ids: Sequence[str], claimed_loss: float) -> None:
        """Add ``claimed_loss`` once per id in ``device_ids``, in order."""
        loss = check_claimed_loss(claimed_loss)
        if self._dense.size:
            for device_id in device_ids:
                self._add(device_id, loss)
            return
        # Batches are overwhelmingly first contact — every id unique in
        # the batch and never seen before — so the common case is one
        # C-level merge appending each device with total ``0.0 + loss``;
        # any repeat falls back to the per-id walk.  Both paths write
        # the same totals in the same dict order.
        by_id = self._by_id
        fresh = dict.fromkeys(device_ids, 0.0 + loss)
        if len(fresh) == len(device_ids) and by_id.keys().isdisjoint(fresh):
            by_id.update(fresh)
            return
        get = by_id.get
        for device_id in device_ids:
            by_id[device_id] = get(device_id, 0.0) + loss

    def record_claimed_losses(self, losses: Mapping[str, float]) -> None:
        """Add each id's total loss; all values are checked before any add."""
        checked = [
            (device_id, check_claimed_loss(loss)) for device_id, loss in losses.items()
        ]
        for device_id, loss in checked:
            self._add(device_id, loss)

    def record_report_counts(
        self, report_counts: np.ndarray, claimed_loss: float
    ) -> None:
        """Charge fleet device ``i`` with ``report_counts[i] * claimed_loss``.

        The one call that grows the dense store (to
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
        n = counts.size
        self._grow(n)
        charged = counts > 0
        with np.errstate(invalid="ignore"):  # 0 * inf on uncharged rows
            np.add(
                self._dense[:n],
                counts * loss,
                out=self._dense[:n],
                where=charged,
            )
        self._seen[:n] |= charged

    def _add(self, device_id: str, loss: float) -> None:
        i = _canonical_index(device_id) if self._dense.size else None
        if i is not None and i < self._dense.size:
            self._dense[i] += loss
            self._seen[i] = True
        else:
            self._by_id[device_id] = self._by_id.get(device_id, 0.0) + loss

    def _grow(self, n: int) -> None:
        """Extend the dense range to ``n`` devices, moving dict entries in."""
        old = self._dense.size
        if n <= old:
            return
        dense = np.zeros(n, dtype=np.float64)
        seen = np.zeros(n, dtype=bool)
        dense[:old] = self._dense
        seen[:old] = self._seen
        self._dense, self._seen = dense, seen
        for device_id in list(self._by_id):
            i = _canonical_index(device_id)
            if i is not None and old <= i < n:
                dense[i] = self._by_id.pop(device_id)
                seen[i] = True

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def total(self, device_id: str) -> float:
        """The device's running total (``0.0`` for an id never charged)."""
        i = _canonical_index(device_id) if self._dense.size else None
        if i is not None and i < self._dense.size:
            return float(self._dense[i])
        return float(self._by_id.get(device_id, 0.0))

    def __len__(self) -> int:
        """Devices tracked in both stores (a Python ``int``)."""
        return len(self._by_id) + int(np.count_nonzero(self._seen))

    def items(self) -> Iterator[Tuple[str, float]]:
        """``(id, total)`` pairs: the dict store in insertion order, then
        the tracked dense devices by ascending index."""
        for device_id, total in self._by_id.items():
            yield device_id, float(total)
        for i in np.flatnonzero(self._seen):
            yield fleet_device_id(int(i)), float(self._dense[i])
