"""Composable pre-admission guard chain (ALLOW / WARN / BLOCK / REPAIR).

Every submission request runs through a :class:`GuardChain` before any
of it reaches the aggregation server.  Each guard inspects the request
and returns a :class:`GuardDecision`:

* **ALLOW** — proceed unchanged.
* **WARN** — proceed, but record a structured warning on the outcome.
* **BLOCK** — refuse the whole batch; the decision carries the reason.
* **REPAIR** — proceed with a *modified* request; every change is
  recorded as a ``field: old -> new`` delta string.

The chain's contract — property-tested in
``tests/property/test_service_guard_properties.py`` — is a strict trichotomy: any
request is either *fully admitted*, *repaired with a recorded delta*,
or *blocked with a reason*.  Nothing is ever silently dropped: a repair
that removes reports names every removal in the delta, and a batch
whose reports would all be removed is blocked instead.

Guards are deterministic state machines over the request sequence (no
wall clock, no randomness), so an admission trace is replayable: the
same requests in the same order produce the same verdicts on any host.

State is applied in **two phases**: :meth:`Guard.check` must be free of
side effects — it rules on the request against the guard's *committed*
state and may attach a ``commit`` callback to its decision.  The chain
collects those callbacks onto the :class:`ChainOutcome`, and the server
invokes :meth:`ChainOutcome.commit` only once the batch is actually
enqueued.  Two consequences, both load-bearing:

* a batch refused at the queue (``busy`` backpressure) or at shutdown
  leaves guard state untouched, so the documented retry of the *same*
  batch is admissible — admission state never charges for work the
  aggregation side never accepted;
* commit callbacks receive the **final** (post-repair) request, so a
  budget charge covers exactly the reports that survived later repairs,
  not the ones a downstream guard dropped.

**One ruling path.**  Both wires reach the same :meth:`Guard.check`.
The schema guard turns every submission into the *canonical columnar
request* — ``values`` a ``float64`` column, ``counts`` an ``int64``
column, ``device_ids`` a
:class:`~repro.aggregation.device_index.SlotIds` — and applies each
content rule once, in one order, whichever representation the request
came in: JSONL lists are converted (numeric strings and integral-float
epochs repaired with a delta), binary-frame columns pass through
without a copy.  The guards after it, and the fold, see columns only.

**Interned device ids.**  The schema guard turns the batch's ids into
slots of the chain's :class:`~repro.aggregation.device_index.DeviceIndex`
exactly once — from the raw ``S``-column bytes on the binary wire, so a
device's id is UTF-8 validated and decoded only the first time it is
seen, or from the ``str`` list on JSONL.
The stateful guards keep their per-device state as slot-indexed numpy
columns (spend, per-epoch rate counts), so each rules with a gather and
a compare and commits with one ``np.add.at``; ids are mapped back to
strings only for reasons and deltas.  Ids the table has not seen get
provisional slots at check time and are appended by
:meth:`ChainOutcome.commit`, so a blocked or queue-refused batch
allocates nothing.  The service shares the table with its server's
disclosure ledger (:attr:`~repro.aggregation.AggregationServer.ledger`),
which charges the same slots.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..aggregation.device_index import DeviceIndex, SlotIds, grow_column
from ..errors import ConfigurationError

__all__ = [
    "Verdict",
    "GuardDecision",
    "ChainOutcome",
    "Guard",
    "GuardChain",
    "SchemaGuard",
    "EpochBudgetGuard",
    "RateLimitGuard",
    "default_chain",
]


class Verdict(enum.Enum):
    """One guard's ruling on one request."""

    ALLOW = "allow"
    WARN = "warn"
    BLOCK = "block"
    REPAIR = "repair"


@dataclasses.dataclass(frozen=True)
class GuardDecision:
    """One guard's decision, with its auditable why.

    ``request`` is the (possibly repaired) request to hand the next
    guard; ``None`` means "unchanged".  ``delta`` records every repair
    as a human-readable ``field: old -> new`` string.  ``commit``, when
    set, applies the guard's state change for this request; it is
    called with the chain's *final* admitted request, and only once the
    batch has actually been accepted downstream (see module docstring).
    """

    verdict: Verdict
    guard: str
    reason: str = ""
    request: Optional[Dict[str, Any]] = None
    delta: Tuple[str, ...] = ()
    commit: Optional[Callable[[Dict[str, Any]], None]] = None


@dataclasses.dataclass(frozen=True)
class ChainOutcome:
    """The chain's aggregate ruling over all guards.

    ``verdict`` is the trichotomy: ``admitted`` / ``repaired`` /
    ``blocked``.  ``request`` is the final request (repairs applied) for
    admitted/repaired outcomes.  ``guard`` names the blocking guard, or
    ``"chain"`` when every guard let the request through.
    """

    verdict: str
    guard: str
    reason: str
    request: Dict[str, Any]
    decisions: Tuple[GuardDecision, ...]
    delta: Tuple[str, ...] = ()
    warnings: Tuple[str, ...] = ()

    @property
    def admitted(self) -> bool:
        return self.verdict in ("admitted", "repaired")

    def commit(self) -> None:
        """Apply every guard's state change for this admitted batch.

        Call exactly once, and only after the batch has been accepted
        downstream (enqueued for folding).  A blocked or queue-refused
        request is never committed, so guards charge nothing for it.
        Committing first appends the batch's never-seen device ids to
        the chain's slot table; then each callback receives the final
        (post-repair) request.
        """
        if not self.admitted:
            raise ConfigurationError(
                "cannot commit a blocked outcome (nothing was admitted)"
            )
        if getattr(self, "_committed", False):
            raise ConfigurationError("outcome already committed")
        object.__setattr__(self, "_committed", True)
        ids = self.request.get("device_ids")
        if isinstance(ids, SlotIds):
            ids.resolve()
        for decision in self.decisions:
            if decision.commit is not None:
                decision.commit(self.request)


class Guard:
    """Base guard: stateless or deterministically stateful check.

    :meth:`check` must not mutate guard state — a stateful guard rules
    against its committed state and hands the mutation to the decision's
    ``commit`` callback (applied post-admission; see module docstring).
    """

    name = "guard"

    def check(self, request: Dict[str, Any]) -> GuardDecision:
        raise NotImplementedError

    def check_array(self, request: Dict[str, Any]) -> GuardDecision:
        """The same ruling as :meth:`check`, which serves both wires."""
        return self.check(request)

    # Decision helpers ---------------------------------------------------
    def allow(
        self, commit: Optional[Callable[[Dict[str, Any]], None]] = None
    ) -> GuardDecision:
        return GuardDecision(Verdict.ALLOW, self.name, commit=commit)

    def warn(
        self,
        reason: str,
        commit: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> GuardDecision:
        return GuardDecision(Verdict.WARN, self.name, reason, commit=commit)

    def block(self, reason: str) -> GuardDecision:
        return GuardDecision(Verdict.BLOCK, self.name, reason)

    def repair(
        self,
        request: Dict[str, Any],
        delta: Sequence[str],
        reason: str = "",
        commit: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> GuardDecision:
        if not delta:
            raise ConfigurationError(
                f"{self.name}: REPAIR must record at least one delta entry"
            )
        return GuardDecision(
            Verdict.REPAIR,
            self.name,
            reason,
            request=request,
            delta=tuple(delta),
            commit=commit,
        )


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(x: Any) -> Optional[float]:
    """``float(x)``, or ``None`` if that is not finite — an integer past
    float range included, where ``float`` would raise."""
    try:
        x = float(x)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _is_column(x: Any, kind: str) -> bool:
    """Whether ``x`` is a 1-D numpy column of dtype kind ``kind``."""
    return isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype.kind == kind


def _decodes(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
        return True
    except UnicodeDecodeError:
        return False


class _Refusal(Exception):
    """Raised by a schema rule: BLOCK the request with this reason."""


class SchemaGuard(Guard):
    """Strict structural validation of submission requests.

    BLOCKs malformed batches (missing/mistyped fields, non-finite
    values, length mismatches, oversized batches).  With
    ``coerce=True`` (default) it REPAIRs the recoverable cases instead
    of blocking them, recording each change in the delta:

    * numeric strings in ``values`` / ``claimed_loss`` → parsed floats,
    * an integral float ``epoch`` (``3.0``) → the int ``3``,
    * unknown extra fields → dropped.

    Anything the repair cannot make exact — a NaN, an unparseable
    string, a negative count, an integer past float range — is a
    BLOCK, never a guess.

    A request may carry its columns as lists (JSONL, in-process
    callers) or as numpy columns (a binary frame: ``S`` ids, ``float``
    values, ``int`` counts); each rule reads either the same way.  An
    admitted request is the canonical columnar one: ``values`` a
    ``float64`` column, ``counts`` an ``int64`` column, and ids a
    :class:`~repro.aggregation.device_index.SlotIds` of
    ``device_index`` (the chain's shared table; a private one if
    omitted).  Columns that are already in canonical form pass through
    without a copy.
    """

    name = "schema"

    _KEYS = {
        "submit": frozenset(
            {"op", "epoch", "device_ids", "values", "claimed_loss"}
        ),
        "submit_counts": frozenset(
            {"op", "epoch", "counts", "n_reports", "claimed_loss"}
        ),
    }

    def __init__(
        self,
        max_batch: int = 65536,
        coerce: bool = True,
        device_index: Optional[DeviceIndex] = None,
    ):
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        self.max_batch = int(max_batch)
        self.coerce = bool(coerce)
        self.device_index = device_index if device_index is not None else DeviceIndex()

    def check(self, request: Dict[str, Any]) -> GuardDecision:
        op = request.get("op")
        if op not in ("submit", "submit_counts"):
            return self.block(f"unknown submission op {op!r}")
        delta: List[str] = []
        try:
            self._check_fields(request, self._KEYS[op], delta)
            out = {"op": op, "epoch": self._epoch(request["epoch"], delta)}
            if op == "submit":
                out.update(self._submit_columns(request, delta))
            else:
                out.update(self._counts_columns(request))
            out["claimed_loss"] = self._loss(request["claimed_loss"], delta)
        except _Refusal as refusal:
            return self.block(str(refusal))
        if delta:
            return self.repair(out, delta, reason="schema coercion")
        return GuardDecision(Verdict.ALLOW, self.name, request=out)

    # -----------------------------------------------------------------
    def _check_fields(
        self, request: Dict[str, Any], allowed: frozenset, delta: List[str]
    ) -> None:
        extras = sorted(set(request) - allowed)
        if extras and not self.coerce:
            raise _Refusal(f"unknown fields {extras} (strict schema)")
        delta.extend(f"{k}: <dropped unknown field>" for k in extras)
        missing = sorted(allowed - set(request))
        if missing:
            raise _Refusal(f"missing fields {missing}")

    def _epoch(self, epoch: Any, delta: List[str]) -> int:
        if _is_int(epoch) and epoch >= 0:
            return epoch
        if (
            self.coerce
            and isinstance(epoch, float)
            and math.isfinite(epoch)
            and epoch == int(epoch)
            and epoch >= 0
        ):
            delta.append(f"epoch: {epoch!r} -> {int(epoch)}")
            return int(epoch)
        raise _Refusal(f"epoch must be a nonnegative integer, got {epoch!r}")

    def _loss(self, loss: Any, delta: List[str]) -> float:
        value = loss
        if isinstance(loss, str) and self.coerce:
            try:
                value = float(loss)
            except ValueError:
                value = None
            else:
                delta.append(f"claimed_loss: {loss!r} -> {value!r}")
        value = _finite(value) if _is_number(value) else None
        if value is None or value <= 0.0:
            raise _Refusal(
                f"claimed_loss must be a positive finite number, got {loss!r}"
            )
        return value

    def _submit_columns(
        self, request: Dict[str, Any], delta: List[str]
    ) -> Dict[str, Any]:
        ids = request["device_ids"]
        values = request["values"]
        if not (isinstance(ids, list) or _is_column(ids, "S")) or not (
            isinstance(values, list) or _is_column(values, "f")
        ):
            raise _Refusal("device_ids and values must be arrays")
        if not len(values):
            raise _Refusal("empty batch (no values)")
        if len(ids) != len(values):
            raise _Refusal(
                f"device_ids ({len(ids)}) and values ({len(values)}) disagree"
            )
        if len(values) > self.max_batch:
            raise _Refusal(
                f"batch of {len(values)} exceeds max_batch={self.max_batch}"
            )
        return {
            "device_ids": self._slot_ids(ids),
            "values": self._values_column(values, delta),
        }

    def _slot_ids(self, ids: Any) -> SlotIds:
        if isinstance(ids, list):
            # A well-formed batch (nonempty str ids) skips the walk that
            # names a bad one.
            if not (set(map(type, ids)) <= {str} and "" not in ids):
                for i, device_id in enumerate(ids):
                    if not isinstance(device_id, str) or not device_id:
                        raise _Refusal(f"device_ids[{i}] must be a nonempty string")
            return self.device_index.lookup(ids)
        empty = np.flatnonzero(ids == b"")
        if empty.size:
            raise _Refusal(f"device_ids[{empty[0]}] must be a nonempty string")
        try:
            return self.device_index.lookup_raw(ids)
        except UnicodeDecodeError:
            bad = next(i for i, raw in enumerate(ids.tolist()) if not _decodes(raw))
            raise _Refusal(f"device_ids[{bad}] is not valid UTF-8") from None

    def _values_column(self, values: Any, delta: List[str]) -> np.ndarray:
        if isinstance(values, list) and not set(map(type, values)) <= {float}:
            # Only this walk coerces, and it stops at the first bad
            # report, so a block names the earliest one.
            values = [self._value(i, v, delta) for i, v in enumerate(values)]
        column = np.asarray(values, dtype=np.float64)
        finite = np.isfinite(column)
        if not finite.all():
            raise _Refusal(f"values[{np.argmin(finite)}] is not finite")
        return column

    def _value(self, i: int, v: Any, delta: List[str]) -> float:
        if isinstance(v, str) and self.coerce:
            try:
                parsed = float(v)
            except ValueError:
                raise _Refusal(f"values[{i}] is not numeric: {v!r}") from None
            delta.append(f"values[{i}]: {v!r} -> {parsed!r}")
            v = parsed
        if not _is_number(v):
            raise _Refusal(f"values[{i}] must be a number, got {v!r}")
        value = _finite(v)
        if value is None:
            raise _Refusal(f"values[{i}] is not finite")
        return value

    def _counts_columns(self, request: Dict[str, Any]) -> Dict[str, Any]:
        counts = request["counts"]
        entries = counts.tolist() if _is_column(counts, "i") else counts
        if not isinstance(entries, list) or len(entries) < 2:
            raise _Refusal("counts must be an array of >= 2 categories")
        for i, c in enumerate(entries):
            if not _is_int(c) or c < 0:
                raise _Refusal(f"counts[{i}] must be a nonnegative integer, got {c!r}")
        n_reports = request["n_reports"]
        if not _is_int(n_reports) or n_reports < 1:
            raise _Refusal(f"n_reports must be a positive integer, got {n_reports!r}")
        # Summed as Python ints: exact, where an int64 column sum wraps.
        total = sum(entries)
        if total > n_reports * len(entries):
            raise _Refusal(
                f"counts sum {total} impossible for {n_reports} reports "
                f"over {len(entries)} categories"
            )
        if n_reports > self.max_batch:
            raise _Refusal(f"batch of {n_reports} exceeds max_batch={self.max_batch}")
        return {
            "counts": np.asarray(counts, dtype=np.int64),
            "n_reports": int(n_reports),
        }


def _gather(column: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``column[slots]``.  A slot past the column's end (never charged)
    reads the last entry, which :func:`_room` keeps at 0."""
    return column.take(slots, mode="clip")


def _room(column: np.ndarray, table: DeviceIndex) -> np.ndarray:
    """``column`` with room for every slot of ``table`` plus one more,
    which no commit writes: the zero :func:`_gather` reads past the end."""
    return grow_column(column, len(table) + 1)


def _occurrence_rank(slots: np.ndarray) -> np.ndarray:
    """For each report, how many earlier reports of the batch share its slot."""
    order = np.argsort(slots, kind="stable")
    ordered = slots[order]
    n = slots.size
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
    return rank


class EpochBudgetGuard(Guard):
    """Epoch-window and claimed-loss/budget validation.

    * Epochs beyond ``epoch_horizon`` are BLOCKed (a device reporting
      for epoch 10^9 is malfunctioning or probing).
    * ``claimed_loss`` above ``max_claimed_loss`` is BLOCKed — the
      server will not fold reports whose claimed disclosure is absurd;
      above ``warn_claimed_loss`` it is admitted with a WARN.
    * With a ``device_budget``, the guard tracks each device's
      cumulative claimed loss across admitted batches and BLOCKs
      batches that would push any device past it — the server-side
      mirror of the on-device accountant (conservative, like
      :meth:`~repro.aggregation.AggregationServer.worst_case_disclosure`).
      A device named ``k`` times in one batch is screened at its spend
      plus ``k`` charges, exactly the total the commit would write.

    Budget state is charged by the decision's ``commit`` callback, not
    at check time, and against the chain's *final* request — so a batch
    refused downstream (queue-full ``busy``, shutdown) charges nothing,
    and reports a later guard repairs away are never charged.  Spend is
    a float64 column indexed by the device's slot in ``device_index``,
    charged with ``np.add.at`` (in report order, so every total is the
    float a per-id walk gives).  Spend is never forgotten: the column
    grows with the shared ``device_index``, so a device that returns
    after any number of other ids is screened at its full spend.

    Runs after :class:`SchemaGuard` and :class:`RateLimitGuard`, so
    fields are already typed and the batch it rules on is the one it
    charges.
    """

    name = "epoch-budget"

    def __init__(
        self,
        epoch_horizon: int = 1_000_000,
        max_claimed_loss: float = 16.0,
        warn_claimed_loss: Optional[float] = None,
        device_budget: Optional[float] = None,
        device_index: Optional[DeviceIndex] = None,
    ):
        if epoch_horizon < 0:
            raise ConfigurationError("epoch_horizon must be >= 0")
        if max_claimed_loss <= 0:
            raise ConfigurationError("max_claimed_loss must be positive")
        self.epoch_horizon = int(epoch_horizon)
        self.max_claimed_loss = float(max_claimed_loss)
        self.warn_claimed_loss = float(
            warn_claimed_loss if warn_claimed_loss is not None
            else max_claimed_loss / 2.0
        )
        self.device_budget = None if device_budget is None else float(device_budget)
        self.device_index = device_index if device_index is not None else DeviceIndex()
        #: Spend by slot; positive once charged, since the schema guard
        #: admits only positive claimed losses.
        self._spend = np.zeros(1, dtype=np.float64)

    def spend_items(self) -> List[Tuple[str, float]]:
        """``(device id, spend)`` of each charged device, in slot order
        (the order ``device_index`` first saw them)."""
        return [
            (self.device_index.id_of(slot), float(self._spend[slot]))
            for slot in np.flatnonzero(self._spend).tolist()
        ]

    def _charge(self, final: Dict[str, Any]) -> None:
        """Commit hook: charge spend for the devices that actually made
        it into the admitted batch (post-repair)."""
        if self.device_budget is None or final.get("op") != "submit":
            return
        slots = self.device_index.lookup(final["device_ids"]).resolve()
        spend = self._spend = _room(self._spend, self.device_index)
        np.add.at(spend, slots, final["claimed_loss"])

    def check(self, request: Dict[str, Any]) -> GuardDecision:
        epoch = request["epoch"]
        if epoch > self.epoch_horizon:
            return self.block(
                f"epoch {epoch} beyond horizon {self.epoch_horizon}"
            )
        loss = request["claimed_loss"]
        if loss > self.max_claimed_loss:
            return self.block(
                f"claimed_loss {loss:g} exceeds cap {self.max_claimed_loss:g}"
            )
        commit = None
        if self.device_budget is not None and request["op"] == "submit":
            ids = self.device_index.lookup(request["device_ids"])
            slots = ids.provisional
            spend = _gather(self._spend, slots)
            if ids.distinct:
                after = spend + loss
            else:
                # Add ``loss`` once per report, in order, to each
                # device's spend: the totals the commit would write.
                _, first, inverse = np.unique(
                    slots, return_index=True, return_inverse=True
                )
                totals = spend[first]
                np.add.at(totals, inverse, loss)
                after = totals[inverse]
            over = np.flatnonzero(after > self.device_budget + 1e-12)
            if over.size:
                names = sorted({ids[i] for i in over.tolist()})
                shown = ", ".join(names[:5]) + (", ..." if len(names) > 5 else "")
                return self.block(
                    f"{len(names)} device(s) past budget "
                    f"{self.device_budget:g}: {shown}"
                )
            commit = self._charge
        if loss > self.warn_claimed_loss:
            return self.warn(
                f"claimed_loss {loss:g} above warning level "
                f"{self.warn_claimed_loss:g}",
                commit=commit,
            )
        return self.allow(commit=commit)


class RateLimitGuard(Guard):
    """Per-device, per-epoch report-rate limiting.

    The fleet contract is one report per device per epoch; a device
    (or a replaying middlebox) exceeding ``per_epoch_limit`` is either
    REPAIRed — its over-limit reports removed from the batch, each
    removal recorded in the delta — or, if the repair would empty the
    batch, the batch is BLOCKed.  Counting is deterministic in the
    request sequence; only the most recent ``max_epochs_tracked``
    epochs are retained so state stays bounded.  Each tracked epoch is
    one small unsigned count column indexed by the device's slot in
    ``device_index``, and nothing else: :meth:`epoch_counts` lists
    devices in slot order.

    Like the budget guard, per-device counts are applied by the
    decision's ``commit`` callback: a batch the queue refuses as
    ``busy`` consumes nobody's rate allowance, so the documented
    same-batch retry is not self-blocking.
    """

    name = "rate-limit"

    def __init__(
        self,
        per_epoch_limit: int = 1,
        max_epochs_tracked: int = 64,
        device_index: Optional[DeviceIndex] = None,
    ):
        if per_epoch_limit < 1:
            raise ConfigurationError("per_epoch_limit must be >= 1")
        if max_epochs_tracked < 1:
            raise ConfigurationError("max_epochs_tracked must be >= 1")
        self.per_epoch_limit = int(per_epoch_limit)
        self.max_epochs_tracked = int(max_epochs_tracked)
        self.device_index = device_index if device_index is not None else DeviceIndex()
        self._dtype = np.min_scalar_type(self.per_epoch_limit)
        #: Reports by slot, one column per tracked epoch.
        self._epochs: Dict[int, np.ndarray] = {}
        #: Commits applied so far: a check's counts are current at
        #: commit time only if no commit landed in between.
        self._commits = 0

    def tracked_epochs(self) -> List[int]:
        """Epochs with committed counts, ascending."""
        return sorted(self._epochs)

    def epoch_counts(self, epoch: int) -> List[Tuple[str, int]]:
        """``(device id, reports)`` for one epoch, in slot order (the
        order ``device_index`` first saw the devices)."""
        counts = self._epochs.get(epoch)
        if counts is None:
            return []
        return [
            (self.device_index.id_of(slot), int(counts[slot]))
            for slot in np.flatnonzero(counts).tolist()
        ]

    def _apply(self, epoch: int, slots: np.ndarray, seen: int) -> None:
        """Commit hook: count one report per entry of ``slots``
        (creating/evicting epoch state here, not at check time).
        ``seen`` is the commit count the check ruled against."""
        if not slots.size:
            return
        counts = self._epochs.get(epoch)
        if counts is None:
            counts = np.zeros(1, dtype=self._dtype)
        counts = _room(counts, self.device_index)
        if self._commits != seen:
            # Another commit landed since the check, so counts can pass
            # the limit (by at most one request's worth): keep room.
            top = int(counts[slots].max()) + self.per_epoch_limit
            if top > np.iinfo(counts.dtype).max:
                counts = counts.astype(np.int64)
        np.add.at(counts, slots, counts.dtype.type(1))
        self._commits += 1
        self._epochs[epoch] = counts
        while len(self._epochs) > self.max_epochs_tracked:
            del self._epochs[min(self._epochs)]

    def check(self, request: Dict[str, Any]) -> GuardDecision:
        if request["op"] != "submit":
            # Count batches carry no device ids; nothing to rate-limit.
            return self.allow()
        epoch = request["epoch"]
        ids = self.device_index.lookup(request["device_ids"])
        slots = ids.provisional
        counts = self._epochs.get(epoch)
        seen = self._commits
        used = (
            _gather(counts, slots)
            if counts is not None
            else np.zeros(slots.size, dtype=np.intp)
        )
        if not ids.distinct:
            used = used + _occurrence_rank(slots)
        if used.max() < self.per_epoch_limit:

            def commit(final: Dict[str, Any], epoch=epoch) -> None:
                self._apply(epoch, ids.resolve(), seen)

            return self.allow(commit=commit)
        keep = used < self.per_epoch_limit
        kept = np.flatnonzero(keep)
        if not kept.size:
            return self.block(
                f"every report in the batch is over the "
                f"{self.per_epoch_limit}/epoch rate limit"
            )
        dropped = [
            f"values[{i}]: <dropped: device {ids[i]!r} over "
            f"{self.per_epoch_limit}/epoch rate limit>"
            for i in np.flatnonzero(~keep).tolist()
        ]

        def commit_kept(final: Dict[str, Any], epoch=epoch) -> None:
            self._apply(epoch, ids.resolve()[kept], seen)

        repaired = dict(request)
        repaired["device_ids"] = ids.take(kept)
        repaired["values"] = request["values"][kept]
        return self.repair(
            repaired, dropped, reason="rate limit", commit=commit_kept
        )


class GuardChain:
    """Run guards in order; fold their decisions into one outcome.

    REPAIR hands the repaired request to the next guard; WARN records
    and continues; BLOCK stops the chain.  The final verdict is the
    trichotomy described in the module docstring.

    :meth:`check` is side-effect-free; stateful guards hand their
    mutations to the outcome, and the caller applies them with
    :meth:`ChainOutcome.commit` once (and only if) the admitted batch
    is actually accepted downstream.
    """

    def __init__(self, guards: Sequence[Guard]):
        if not guards:
            raise ConfigurationError("a guard chain needs at least one guard")
        self.guards = list(guards)

    def check(self, request: Dict[str, Any]) -> ChainOutcome:
        decisions: List[GuardDecision] = []
        delta: List[str] = []
        warnings: List[str] = []
        current = request
        for guard in self.guards:
            decision = guard.check(current)
            decisions.append(decision)
            if decision.verdict is Verdict.BLOCK:
                return ChainOutcome(
                    verdict="blocked",
                    guard=decision.guard,
                    reason=decision.reason,
                    request=current,
                    decisions=tuple(decisions),
                    delta=tuple(delta),
                    warnings=tuple(warnings),
                )
            if decision.verdict is Verdict.WARN:
                warnings.append(f"{decision.guard}: {decision.reason}")
            if decision.verdict is Verdict.REPAIR:
                delta.extend(decision.delta)
            if decision.request is not None:
                current = decision.request
        return ChainOutcome(
            verdict="repaired" if delta else "admitted",
            guard="chain",
            reason="; ".join(warnings),
            request=current,
            decisions=tuple(decisions),
            delta=tuple(delta),
            warnings=tuple(warnings),
        )


def default_chain(
    max_batch: int = 65536,
    coerce: bool = True,
    epoch_horizon: int = 1_000_000,
    max_claimed_loss: float = 16.0,
    device_budget: Optional[float] = None,
    per_epoch_limit: int = 1,
    device_index: Optional[DeviceIndex] = None,
) -> GuardChain:
    """The service's standard chain: schema → rate limit → epoch/budget.

    The rate limiter runs before the budget guard so the batch the
    budget rules on is the one it charges.  All three guards share one
    slot table: ``device_index`` (the service passes its server's
    disclosure-ledger table), or a new one.
    """
    index = device_index if device_index is not None else DeviceIndex()
    return GuardChain(
        [
            SchemaGuard(max_batch=max_batch, coerce=coerce, device_index=index),
            RateLimitGuard(per_epoch_limit=per_epoch_limit, device_index=index),
            EpochBudgetGuard(
                epoch_horizon=epoch_horizon,
                max_claimed_loss=max_claimed_loss,
                device_budget=device_budget,
                device_index=index,
            ),
        ]
    )
