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

**Columnar fast path.**  Requests arriving on the binary wire carry
numpy column buffers (``device_ids`` as a fixed-width ``S`` array,
``values`` as ``float64``) instead of Python lists.
:meth:`GuardChain.check_array` routes each guard through
:meth:`Guard.check_array`; the rulings are **verdict-, delta-, and
commit-equivalent** to the scalar path on the same logical batch
(property-tested in
``tests/property/test_columnar_guard_equivalence.py``).  The numeric
column never becomes per-report Python objects: the schema guard rules
on it with single ``np.isfinite``/shape sweeps and repairs mask it
in-place-shaped (``values[keep_mask]``).

**Interned device ids.**  The schema guard turns the batch's ids into
slots of the chain's :class:`~repro.aggregation.device_index.DeviceIndex`
exactly once — from the raw ``S``-column bytes on the binary wire, so a
device's id is UTF-8 validated and decoded only the first time it is
seen, or from the ``str`` list on JSONL — and hands the downstream
guards and the fold a :class:`~repro.aggregation.device_index.SlotIds`.
The stateful guards keep their per-device state as slot-indexed numpy
columns (spend, last-charge stamp, per-epoch rate counts), so each
rules with a gather and a compare and commits with one ``np.add.at``,
whichever wire the batch took; ids are mapped back to strings only for
reasons and deltas.  Ids the table has not seen get provisional slots
at check time and are appended by :meth:`ChainOutcome.commit`, so a
blocked or queue-refused batch allocates nothing.  The service shares
the table with its server's disclosure ledger
(:attr:`~repro.aggregation.AggregationServer.ledger`), which charges
the same slots.  The base-class :meth:`Guard.check_array` delegates to
:meth:`Guard.check`, so guards that only read scalar fields
(``op``/``epoch``/``claimed_loss``) or work on either id
representation need one ruling path.
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
        """Rule on a *columnar* request (numpy column buffers).

        Defaults to :meth:`check`, which suits any guard that only
        reads scalar fields — ``op``, ``epoch``, ``claimed_loss`` are
        identical in both representations.  Guards that inspect
        per-report columns override this with a vectorized
        implementation; the same two-phase commit contract applies.
        """
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
    string, a negative count — is a BLOCK, never a guess.

    An admitted submit carries its ids as a
    :class:`~repro.aggregation.device_index.SlotIds` of
    ``device_index`` (the chain's shared table; a private one if
    omitted).
    """

    name = "schema"

    _SUBMIT_KEYS = frozenset(
        {"op", "epoch", "device_ids", "values", "claimed_loss"}
    )
    _COUNTS_KEYS = frozenset(
        {"op", "epoch", "counts", "n_reports", "claimed_loss"}
    )

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
        if op == "submit":
            return self._check_submit(request)
        if op == "submit_counts":
            return self._check_counts(request)
        return self.block(f"unknown submission op {op!r}")

    # -----------------------------------------------------------------
    def _strip_extras(
        self, request: Dict[str, Any], allowed: frozenset, delta: List[str]
    ) -> Optional[Dict[str, Any]]:
        extras = sorted(set(request) - allowed)
        if not extras:
            return dict(request)
        if not self.coerce:
            return None
        out = {k: v for k, v in request.items() if k in allowed}
        delta.extend(f"{k}: <dropped unknown field>" for k in extras)
        return out

    def _coerce_epoch(
        self, req: Dict[str, Any], delta: List[str]
    ) -> Optional[int]:
        epoch = req.get("epoch")
        if _is_int(epoch):
            return epoch if epoch >= 0 else None
        if (
            self.coerce
            and isinstance(epoch, float)
            and math.isfinite(epoch)
            and epoch == int(epoch)
            and epoch >= 0
        ):
            delta.append(f"epoch: {epoch!r} -> {int(epoch)}")
            return int(epoch)
        return None

    def _coerce_loss(
        self, req: Dict[str, Any], delta: List[str]
    ) -> Optional[float]:
        loss = req.get("claimed_loss")
        if isinstance(loss, str) and self.coerce:
            try:
                parsed = float(loss)
            except ValueError:
                return None
            delta.append(f"claimed_loss: {loss!r} -> {parsed!r}")
            loss = parsed
        if not _is_number(loss):
            return None
        loss = float(loss)
        if not math.isfinite(loss) or loss <= 0.0:
            return None
        return loss

    def _check_submit(self, request: Dict[str, Any]) -> GuardDecision:
        delta: List[str] = []
        req = self._strip_extras(request, self._SUBMIT_KEYS, delta)
        if req is None:
            extras = sorted(set(request) - self._SUBMIT_KEYS)
            return self.block(f"unknown fields {extras} (strict schema)")
        missing = sorted(self._SUBMIT_KEYS - set(req))
        if missing:
            return self.block(f"missing fields {missing}")
        epoch = self._coerce_epoch(req, delta)
        if epoch is None:
            return self.block(
                f"epoch must be a nonnegative integer, got {req.get('epoch')!r}"
            )
        ids = req.get("device_ids")
        values = req.get("values")
        if not isinstance(ids, list) or not isinstance(values, list):
            return self.block("device_ids and values must be arrays")
        if not values:
            return self.block("empty batch (no values)")
        if len(ids) != len(values):
            return self.block(
                f"device_ids ({len(ids)}) and values ({len(values)}) disagree"
            )
        if len(values) > self.max_batch:
            return self.block(
                f"batch of {len(values)} exceeds max_batch={self.max_batch}"
            )
        # A well-formed batch (str ids, finite float values) passes the
        # per-report walks below untouched; only they name a bad report.
        if not (set(map(type, ids)) <= {str} and "" not in ids):
            for i, device_id in enumerate(ids):
                if not isinstance(device_id, str) or not device_id:
                    return self.block(f"device_ids[{i}] must be a nonempty string")
        if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
            clean_values = list(values)
        else:
            clean_values = []
            for i, v in enumerate(values):
                if isinstance(v, str) and self.coerce:
                    try:
                        parsed = float(v)
                    except ValueError:
                        return self.block(f"values[{i}] is not numeric: {v!r}")
                    delta.append(f"values[{i}]: {v!r} -> {parsed!r}")
                    v = parsed
                if not _is_number(v):
                    return self.block(f"values[{i}] must be a number, got {v!r}")
                v = float(v)
                if not math.isfinite(v):
                    return self.block(f"values[{i}] is not finite")
                clean_values.append(v)
        loss = self._coerce_loss(req, delta)
        if loss is None:
            return self.block(
                f"claimed_loss must be a positive finite number, "
                f"got {req.get('claimed_loss')!r}"
            )
        out = {
            "op": "submit",
            "epoch": epoch,
            "device_ids": self.device_index.lookup(ids),
            "values": clean_values,
            "claimed_loss": loss,
        }
        if delta:
            return self.repair(out, delta, reason="schema coercion")
        return GuardDecision(Verdict.ALLOW, self.name, request=out)

    def _check_counts(self, request: Dict[str, Any]) -> GuardDecision:
        delta: List[str] = []
        req = self._strip_extras(request, self._COUNTS_KEYS, delta)
        if req is None:
            extras = sorted(set(request) - self._COUNTS_KEYS)
            return self.block(f"unknown fields {extras} (strict schema)")
        missing = sorted(self._COUNTS_KEYS - set(req))
        if missing:
            return self.block(f"missing fields {missing}")
        epoch = self._coerce_epoch(req, delta)
        if epoch is None:
            return self.block(
                f"epoch must be a nonnegative integer, got {req.get('epoch')!r}"
            )
        counts = req.get("counts")
        if not isinstance(counts, list) or len(counts) < 2:
            return self.block("counts must be an array of >= 2 categories")
        for i, c in enumerate(counts):
            if not _is_int(c) or c < 0:
                return self.block(
                    f"counts[{i}] must be a nonnegative integer, got {c!r}"
                )
        n_reports = req.get("n_reports")
        if not _is_int(n_reports) or n_reports < 1:
            return self.block(
                f"n_reports must be a positive integer, got {n_reports!r}"
            )
        if sum(counts) > n_reports * len(counts):
            return self.block(
                f"counts sum {sum(counts)} impossible for {n_reports} reports "
                f"over {len(counts)} categories"
            )
        if n_reports > self.max_batch:
            return self.block(
                f"batch of {n_reports} exceeds max_batch={self.max_batch}"
            )
        loss = self._coerce_loss(req, delta)
        if loss is None:
            return self.block(
                f"claimed_loss must be a positive finite number, "
                f"got {req.get('claimed_loss')!r}"
            )
        out = {
            "op": "submit_counts",
            "epoch": epoch,
            "counts": [int(c) for c in counts],
            "n_reports": int(n_reports),
            "claimed_loss": loss,
        }
        if delta:
            return self.repair(out, delta, reason="schema coercion")
        return GuardDecision(Verdict.ALLOW, self.name, request=out)

    # -- Columnar fast path -------------------------------------------
    def check_array(self, request: Dict[str, Any]) -> GuardDecision:
        """Vectorized structural validation of a columnar request.

        The binary decoder already guarantees the dtypes (float64
        values, ``S`` ids, int64 counts) and column-length agreement,
        so the columnar schema check reduces to the *content* rules —
        finiteness, non-empty ids, valid UTF-8, batch bounds — ruled
        with single numpy sweeps.  Coercion never arises (the wire is
        typed), which matches the scalar path on equivalently-typed
        input: neither coerces, both ALLOW or BLOCK with the same
        reason.

        The **canonical** columnar submit this guard emits carries the
        value column untouched (the zero-copy f8 view) and the id
        column as slots of the chain's table, looked up by raw bytes —
        only ids never seen before are decoded — and reused by the
        stateful guards and by the fold.
        """
        op = request.get("op")
        if op == "submit":
            return self._check_submit_array(request)
        if op == "submit_counts":
            return self._check_counts_array(request)
        return self.block(f"unknown submission op {op!r}")

    def _check_submit_array(self, request: Dict[str, Any]) -> GuardDecision:
        epoch = request.get("epoch")
        if not _is_int(epoch) or epoch < 0:
            return self.block(
                f"epoch must be a nonnegative integer, got {epoch!r}"
            )
        ids = request.get("device_ids")
        values = request.get("values")
        if not isinstance(ids, np.ndarray) or not isinstance(values, np.ndarray):
            return self.block("device_ids and values must be arrays")
        if values.size == 0:
            return self.block("empty batch (no values)")
        if ids.size != values.size:
            return self.block(
                f"device_ids ({ids.size}) and values ({values.size}) disagree"
            )
        if values.size > self.max_batch:
            return self.block(
                f"batch of {values.size} exceeds max_batch={self.max_batch}"
            )
        try:
            slot_ids = self.device_index.lookup_raw(ids)
        except UnicodeDecodeError:
            bad = next(i for i, raw in enumerate(ids.tolist()) if not _decodes(raw))
            return self.block(f"device_ids[{bad}] is not valid UTF-8")
        empty = ids == b""
        if empty.any():
            i = int(np.flatnonzero(empty)[0])
            return self.block(f"device_ids[{i}] must be a nonempty string")
        finite = np.isfinite(values)
        if not finite.all():
            i = int(np.flatnonzero(~finite)[0])
            return self.block(f"values[{i}] is not finite")
        loss = request.get("claimed_loss")
        if not _is_number(loss) or not math.isfinite(float(loss)) or loss <= 0.0:
            return self.block(
                f"claimed_loss must be a positive finite number, got {loss!r}"
            )
        out = {
            "op": "submit",
            "epoch": epoch,
            "device_ids": slot_ids,
            "values": values,
            "claimed_loss": float(loss),
        }
        return GuardDecision(Verdict.ALLOW, self.name, request=out)

    def _check_counts_array(self, request: Dict[str, Any]) -> GuardDecision:
        epoch = request.get("epoch")
        if not _is_int(epoch) or epoch < 0:
            return self.block(
                f"epoch must be a nonnegative integer, got {epoch!r}"
            )
        counts = request.get("counts")
        if not isinstance(counts, np.ndarray) or counts.size < 2:
            return self.block("counts must be an array of >= 2 categories")
        negative = counts < 0
        if negative.any():
            i = int(np.flatnonzero(negative)[0])
            return self.block(
                f"counts[{i}] must be a nonnegative integer, "
                f"got {int(counts[i])!r}"
            )
        n_reports = request.get("n_reports")
        if not _is_int(n_reports) or n_reports < 1:
            return self.block(
                f"n_reports must be a positive integer, got {n_reports!r}"
            )
        total = int(counts.sum())
        if total > n_reports * counts.size:
            return self.block(
                f"counts sum {total} impossible for {n_reports} reports "
                f"over {counts.size} categories"
            )
        if n_reports > self.max_batch:
            return self.block(
                f"batch of {n_reports} exceeds max_batch={self.max_batch}"
            )
        loss = request.get("claimed_loss")
        if not _is_number(loss) or not math.isfinite(float(loss)) or loss <= 0.0:
            return self.block(
                f"claimed_loss must be a positive finite number, got {loss!r}"
            )
        out = {
            "op": "submit_counts",
            "epoch": epoch,
            "counts": counts,
            "n_reports": int(n_reports),
            "claimed_loss": float(loss),
        }
        return GuardDecision(Verdict.ALLOW, self.name, request=out)


def _decodes(raw: bytes) -> bool:
    try:
        raw.decode("utf-8")
        return True
    except UnicodeDecodeError:
        return False


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
        #: Spend by slot, and the charge clock at each slot's last
        #: charge (0: never charged) — the order of :meth:`spend_items`.
        self._spend = np.zeros(1, dtype=np.float64)
        self._stamp = np.zeros(1, dtype=np.int64)
        self._clock = 0

    def spend_items(self) -> List[Tuple[str, float]]:
        """``(device id, spend)`` of each charged device, least recently
        charged first."""
        tracked = np.flatnonzero(self._stamp)
        order = tracked[np.argsort(self._stamp[tracked])]
        return [
            (self.device_index.id_of(slot), float(self._spend[slot]))
            for slot in order.tolist()
        ]

    def _charge(self, final: Dict[str, Any]) -> None:
        """Commit hook: charge spend for the devices that actually made
        it into the admitted batch (post-repair)."""
        if self.device_budget is None or final.get("op") != "submit":
            return
        slots = self.device_index.lookup(final["device_ids"]).resolve()
        n = slots.size
        if not n:
            return
        spend = self._spend = _room(self._spend, self.device_index)
        stamp = self._stamp = _room(self._stamp, self.device_index)
        np.add.at(spend, slots, final["claimed_loss"])
        np.maximum.at(stamp, slots, np.arange(self._clock + 1, self._clock + n + 1))
        self._clock += n

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


class _EpochCounts:
    """One epoch's rate state: reports per slot, and the slot column of
    every commit in order (whose length also versions the counts)."""

    __slots__ = ("counts", "log")

    def __init__(self, dtype: np.dtype):
        self.counts = np.zeros(1, dtype=dtype)
        self.log: List[np.ndarray] = []


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
    ``device_index``, plus the slot column of each commit, which gives
    :meth:`epoch_counts` the order devices first reported in.

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
        self._epochs: Dict[int, _EpochCounts] = {}

    def tracked_epochs(self) -> List[int]:
        """Epochs with committed counts, ascending."""
        return sorted(self._epochs)

    def epoch_counts(self, epoch: int) -> List[Tuple[str, int]]:
        """``(device id, reports)`` for one epoch, in the order the
        devices first reported in it."""
        state = self._epochs.get(epoch)
        if state is None:
            return []
        reports = np.concatenate(state.log)
        _, first = np.unique(reports, return_index=True)
        return [
            (self.device_index.id_of(slot), int(state.counts[slot]))
            for slot in reports[np.sort(first)].tolist()
        ]

    def _apply(
        self,
        epoch: int,
        slots: np.ndarray,
        checked: Optional[_EpochCounts],
        seen: int,
    ) -> None:
        """Commit hook: count one report per entry of ``slots``
        (creating/evicting epoch state here, not at check time).
        ``checked``/``seen`` are the epoch state and its commit count
        the check ruled against."""
        if not slots.size:
            return
        state = self._epochs.get(epoch)
        if state is None:
            state = self._epochs[epoch] = _EpochCounts(self._dtype)
            while len(self._epochs) > self.max_epochs_tracked:
                del self._epochs[min(self._epochs)]
        counts = state.counts = _room(state.counts, self.device_index)
        if state.log and (state is not checked or len(state.log) != seen):
            # Another commit landed since the check, so counts can pass
            # the limit (by at most one request's worth): keep room.
            top = int(counts[slots].max()) + self.per_epoch_limit
            if top > np.iinfo(counts.dtype).max:
                counts = state.counts = counts.astype(np.int64)
        np.add.at(counts, slots, counts.dtype.type(1))
        state.log.append(slots)

    def check(self, request: Dict[str, Any]) -> GuardDecision:
        if request["op"] != "submit":
            # Count batches carry no device ids; nothing to rate-limit.
            return self.allow()
        epoch = request["epoch"]
        ids = self.device_index.lookup(request["device_ids"])
        slots = ids.provisional
        state = self._epochs.get(epoch)
        seen = len(state.log) if state is not None else 0
        used = (
            _gather(state.counts, slots)
            if state is not None
            else np.zeros(slots.size, dtype=np.intp)
        )
        if not ids.distinct:
            used = used + _occurrence_rank(slots)
        if used.max() < self.per_epoch_limit:

            def commit(final: Dict[str, Any], epoch=epoch) -> None:
                self._apply(epoch, ids.resolve(), state, seen)

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
            self._apply(epoch, ids.resolve()[kept], state, seen)

        repaired = dict(request)
        repaired["device_ids"] = ids.take(kept)
        values = request["values"]
        if isinstance(values, np.ndarray):
            # Columnar batch: the surviving reports are one fancy-index
            # over the value column — the repaired request stays
            # columnar (no per-report Python floats materialize).
            repaired["values"] = values[kept]
        else:
            repaired["values"] = [values[i] for i in kept.tolist()]
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
        return self._run(request, columnar=False)

    def check_array(self, request: Dict[str, Any]) -> ChainOutcome:
        """The columnar analogue of :meth:`check` — same trichotomy,
        same two-phase commit, vectorized guard rulings throughout."""
        return self._run(request, columnar=True)

    def _run(self, request: Dict[str, Any], columnar: bool) -> ChainOutcome:
        decisions: List[GuardDecision] = []
        delta: List[str] = []
        warnings: List[str] = []
        current = request
        for guard in self.guards:
            decision = guard.check_array(current) if columnar else guard.check(current)
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
