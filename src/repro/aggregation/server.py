"""The untrusted aggregation server (paper Fig. 2(b), right side).

Collects privatized reports per epoch and answers aggregate queries over
them.  The server never holds raw data — by construction it only ever
receives :class:`~repro.aggregation.protocol.Report` objects (or arrays
of already-privatized values) — and the post-processing property (paper
Section II-B) means anything it computes inherits each device's LDP
guarantee.

Two retention modes:

* **retain** (default) — every report is kept, every query is answered
  from the raw report set.  This is the reference semantics; memory is
  O(reports).
* **streaming** (``streaming=True``) — reports are folded into per-epoch
  running moments (count / mean / M2 / min / max, plus count-above
  counters for pre-registered thresholds) the moment they arrive, and
  then discarded.  Memory is O(epochs), independent of fleet size —
  the sublinear-server-state regime the communication-efficient LDP
  literature argues for (PAPERS.md, Shahmiri et al.).  Queries that
  need the raw reports (:meth:`values`, :meth:`reports`, medians,
  unregistered thresholds) raise a typed
  :class:`~repro.errors.ConfigurationError`.

Both modes accept *batched* submissions (:meth:`submit_array`) — one
NumPy array per (epoch, shard) instead of one ``Report`` object per
device — which is what lets the sharded fleet runner feed a 50k-device
epoch without materializing 50k Python objects.

Beyond the naive query answers, the server offers the noise-aware
estimators of :mod:`repro.queries.estimators` when told the mechanism's
Laplace scale, and tolerates stragglers (epochs simply aggregate whoever
reported).
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..errors import ConfigurationError
from ..queries.estimators import debiased_variance
from ..queries.frequency import FrequencyEstimate, estimate_from_counts
from .ledger import DisclosureLedger, check_claimed_loss
from .protocol import Report

__all__ = ["AggregationServer", "EpochSummary", "IngestHandle"]


@dataclasses.dataclass(frozen=True)
class EpochSummary:
    """Aggregate view of one collection round.

    In streaming mode ``median`` is ``nan`` (an exact median needs the
    raw reports) and ``n_devices`` equals ``n_reports`` (the streaming
    fold assumes the fleet contract of one report per device per epoch;
    it does not retain ids to deduplicate).
    """

    epoch: int
    n_reports: int
    n_devices: int
    mean: float
    median: float
    variance: float
    variance_debiased: Optional[float]


class _EpochMoments:
    """Running moments of one epoch — O(1) state regardless of reports.

    Mean/variance use Chan's parallel update, so folding shard batches
    in shard order is deterministic: a fleet sharded across W workers
    folds the *same* per-shard batches in the *same* order for every W,
    hence identical moments bit-for-bit.
    """

    __slots__ = ("n", "mean", "m2", "lo", "hi", "count_above")

    def __init__(self, thresholds: Tuple[float, ...]):
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.lo = math.inf
        self.hi = -math.inf
        self.count_above: Dict[float, int] = {float(t): 0 for t in thresholds}

    def fold(self, values: np.ndarray) -> None:
        k = int(values.size)
        if k == 0:
            return
        batch_mean = float(values.mean())
        batch_m2 = float(np.square(values - batch_mean).sum())
        n = self.n + k
        delta = batch_mean - self.mean
        self.mean += delta * (k / n)
        self.m2 += batch_m2 + delta * delta * (self.n * k / n)
        self.n = n
        self.lo = min(self.lo, float(values.min()))
        self.hi = max(self.hi, float(values.max()))
        for t in self.count_above:
            self.count_above[t] += int(np.count_nonzero(values > t))

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.n,
            "mean": self.mean,
            "m2": self.m2,
            "min": self.lo,
            "max": self.hi,
            "count_above": dict(self.count_above),
        }


class _EpochCategoryCounts:
    """Per-epoch categorical support counts — O(d) state, both modes.

    Support counts are exact integers and addition is associative, so
    folding shard batches in shard order is trivially bit-identical for
    any worker count; there is nothing to retain beyond the counts and
    the report tally, which is why the categorical path is streaming-
    native even on a retaining server.
    """

    __slots__ = ("counts", "n")

    def __init__(self, n_categories: int):
        self.counts = np.zeros(int(n_categories), dtype=np.int64)
        self.n = 0

    def fold(self, counts: np.ndarray, n: int) -> None:
        self.counts += counts
        self.n += int(n)


@dataclasses.dataclass
class _ReportBatch:
    """A column-oriented batch of reports (retain mode, array submission)."""

    device_ids: Sequence[str]
    values: np.ndarray
    claimed_loss: float


def _check_id_count(device_ids: Sequence[str], n_reports: int) -> None:
    """One id per report, or the ledger would under-charge the batch."""
    if len(device_ids) != n_reports:
        raise ConfigurationError(
            f"device_ids ({len(device_ids)}) and reports ({n_reports}) disagree"
        )


class IngestHandle:
    """Thread-safe submission facade over one :class:`AggregationServer`.

    The server itself is single-threaded by design (the coordinator owns
    it).  A network-facing ingestion service, though, folds batches from
    an event loop while metrics/snapshot requests may arrive from other
    threads — so every mutating entry point and every snapshot goes
    through one lock.  The lock serializes *whole batches*: a fold is
    atomic with respect to snapshots, so an observer never sees a batch
    half-applied (the "never ingest a partial batch" contract the
    kill-the-server test pins down).

    All handles of one server share that server's single lock
    (:meth:`AggregationServer.ingest_handle` returns a cached instance),
    so two services fronting the same server still serialize correctly.
    """

    def __init__(self, server: "AggregationServer", lock: threading.Lock):
        self._server = server
        self._lock = lock

    def submit_array(self, *args, **kwargs) -> None:
        with self._lock:
            self._server.submit_array(*args, **kwargs)

    def submit_counts(self, *args, **kwargs) -> None:
        with self._lock:
            self._server.submit_counts(*args, **kwargs)

    def submit_many(
        self, folds: Sequence[Callable[["AggregationServer"], None]]
    ) -> List[Optional[Exception]]:
        """Apply several whole-batch folds under **one** lock acquisition.

        The ingestion service's drain side coalesces every batch
        currently queued into a single ``submit_many`` call, so the
        lock handshake and the event-loop → executor hop are paid once
        per *burst* instead of once per batch.  Each fold callable
        receives the raw server (the lock is already held — callables
        must not re-enter the handle) and is applied **in order**, one
        complete batch at a time: batch boundaries, fold order, and
        hence bit-identity with the same batches submitted in-process
        are all preserved — batches are deliberately *not* concatenated,
        because Chan's moment merge is order- but not
        splitting-invariant.

        Folds are isolated: an exception in one is captured and
        returned at its index (``None`` for success) while the rest
        still fold — one malformed batch that slipped the guards must
        not discard its innocent neighbors.
        """
        errors: List[Optional[Exception]] = []
        with self._lock:
            for fold in folds:
                try:
                    fold(self._server)
                    errors.append(None)
                except Exception as exc:  # isolate per-batch failures
                    errors.append(exc)
        return errors

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return self._server.snapshot()


class AggregationServer:
    """Collects reports and answers aggregate queries per epoch."""

    def __init__(
        self,
        noise_scale: Optional[float] = None,
        streaming: bool = False,
        count_thresholds: Sequence[float] = (),
    ):
        #: λ of the devices' Laplace noise, if known; enables debiasing.
        self.noise_scale = noise_scale
        self.streaming = bool(streaming)
        #: Thresholds whose count-above queries the streaming fold keeps.
        self.count_thresholds: Tuple[float, ...] = tuple(
            float(t) for t in count_thresholds
        )
        #: Retain mode: per-epoch submission-ordered list of ``Report``
        #: objects and ``_ReportBatch`` columns.
        self._epochs: Dict[int, List[Union[Report, _ReportBatch]]] = {}
        #: Streaming mode: per-epoch running moments.
        self._moments: Dict[int, _EpochMoments] = {}
        #: Categorical path (both modes): per-epoch support counts.
        self._categories: Dict[int, _EpochCategoryCounts] = {}
        #: Running per-device claimed-loss totals (both modes) — the
        #: server-side composition bound behind
        #: :meth:`worst_case_disclosure`.
        self._ledger = DisclosureLedger()
        #: One lock per server, shared by every :class:`IngestHandle`.
        self._ingest_lock = threading.Lock()
        self._ingest_handle: Optional[IngestHandle] = None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, report: Report) -> None:
        """Accept one report (idempotence is the device's concern)."""
        self._ledger.charge((report.device_id,), report.claimed_loss)
        if self.streaming:
            self._epoch_moments(report.epoch).fold(
                np.asarray([report.value], dtype=float)
            )
        else:
            self._epochs.setdefault(report.epoch, []).append(report)

    def submit_array(
        self,
        epoch: int,
        values: np.ndarray,
        claimed_loss: float,
        device_ids: Optional[Sequence[str]] = None,
        donate: bool = False,
    ) -> None:
        """Accept one epoch batch as an array — no per-report objects.

        This is the sharded-fleet fast path: one call per (epoch, shard)
        with the shard's privatized values.  In retain mode
        ``device_ids`` is required (reports must stay materializable and
        the disclosure bound per-device exact).  In streaming mode ids
        may be omitted; the caller then records the composition bound in
        bulk via :meth:`record_report_counts` (the fleet runner knows
        every device's report count up front from the dropout masks).
        Given ids must number one per value, and the claimed loss must
        be nonnegative and not NaN; either violation raises before
        anything is folded or charged.

        ``donate=True`` is the zero-copy contract of the shared-memory
        data plane: the caller hands over a buffer it will *invalidate*
        after the call (an shm view whose block gets unlinked), and the
        server promises to hold no reference to it on return.  Streaming
        mode satisfies that for free — the fold consumes the view
        immediately; retain mode takes its own copy before storing.
        """
        values = np.asarray(values, dtype=float).reshape(-1)
        claimed_loss = check_claimed_loss(claimed_loss)
        if device_ids is None and not self.streaming:
            raise ConfigurationError(
                "retain-mode submit_array needs device_ids (reports must stay "
                "materializable); pass ids or construct the server with "
                "streaming=True"
            )
        if device_ids is not None:
            _check_id_count(device_ids, values.size)
            self._ledger.charge(device_ids, claimed_loss)
        if self.streaming:
            self._epoch_moments(epoch).fold(values)
            return
        if donate:
            # The caller's buffer dies after this call; retained state
            # must be server-owned memory.
            values = np.array(values, dtype=float, copy=True)
        self._epochs.setdefault(epoch, []).append(
            _ReportBatch(
                device_ids=list(device_ids),
                values=values,
                claimed_loss=claimed_loss,
            )
        )

    def submit_counts(
        self,
        epoch: int,
        counts: np.ndarray,
        n_reports: int,
        claimed_loss: float,
        device_ids: Optional[Sequence[str]] = None,
        donate: bool = False,
    ) -> None:
        """Accept one epoch batch of categorical *support counts*.

        The categorical analogue of :meth:`submit_array`: the client (or
        shard worker) aggregates its reports into the O(d) support-count
        vector via ``mechanism.support_counts`` and ships only that —
        the vector-valued generalization of the streaming fold, and the
        only categorical submission path (raw categorical reports are
        never retained server-side, in either mode).  ``device_ids`` is
        optional exactly as in streaming ``submit_array`` (one per
        report when given); bulk callers use :meth:`record_report_counts`
        instead.

        ``donate=True`` has the same contract as on :meth:`submit_array`
        (caller invalidates the buffer after the call).  The count fold
        is additive and consumes the vector immediately, so donation is
        always zero-copy here; the flag exists so shm callers state the
        ownership transfer explicitly.
        """
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        claimed_loss = check_claimed_loss(claimed_loss)
        if device_ids is not None:
            _check_id_count(device_ids, n_reports)
        if counts.size < 2:
            raise ConfigurationError("support counts need >= 2 categories")
        if n_reports <= 0:
            raise ConfigurationError("submit_counts needs a positive report count")
        if counts.min() < 0:
            raise ConfigurationError("support counts must be nonnegative")
        bucket = self._categories.get(epoch)
        if bucket is not None and bucket.counts.size != counts.size:
            raise ConfigurationError(
                f"epoch {epoch} categorical domain changed: "
                f"{bucket.counts.size} -> {counts.size} categories"
            )
        if device_ids is not None:
            # Charged first, as in submit_array: a refused charge leaves
            # the epoch unfolded.
            self._ledger.charge(device_ids, claimed_loss)
        if bucket is None:
            bucket = self._categories[epoch] = _EpochCategoryCounts(counts.size)
        bucket.fold(counts, n_reports)

    def record_claimed_losses(self, losses: Mapping[str, float]) -> None:
        """Bulk-add per-device claimed losses to the disclosure bound.

        Each value is the device's total for the batch of reports it
        covers, added to its running sum.  Every value is checked (no
        negative, no NaN) before any is added, so a rejected mapping
        leaves the ledger untouched.  A fleet runner that knows every
        device's report count calls :meth:`record_report_counts`
        instead, which needs no per-device objects.
        """
        self._ledger.record_claimed_losses(losses)

    def record_report_counts(
        self, report_counts: np.ndarray, claimed_loss: float
    ) -> None:
        """Charge fleet device ``i`` with ``report_counts[i] * claimed_loss``.

        The bulk composition bound of a fleet run, in one array add:
        device ``i`` is :func:`~repro.aggregation.fleet_device_id`
        ``(i)``, and its total is bit-identical to recording
        ``{fleet_device_id(i): float(report_counts[i]) * claimed_loss}``
        through :meth:`record_claimed_losses`.  It keys the ledger's one
        total column by fleet index (sized ``len(report_counts)``), so a
        server charged this way refuses per-id charges, and one charged
        per id refuses this call, with a
        :class:`~repro.errors.ConfigurationError` before anything
        changes.
        """
        self._ledger.record_report_counts(report_counts, claimed_loss)

    # ------------------------------------------------------------------
    # Epoch access
    # ------------------------------------------------------------------
    def _epoch_moments(self, epoch: int) -> _EpochMoments:
        moments = self._moments.get(epoch)
        if moments is None:
            moments = self._moments[epoch] = _EpochMoments(self.count_thresholds)
        return moments

    @property
    def epochs(self) -> List[int]:
        """Epochs with at least one report, ascending."""
        return sorted(self._moments if self.streaming else self._epochs)

    @property
    def n_retained_reports(self) -> int:
        """Reports currently held in memory — 0 in streaming mode.

        This is the quantity the O(epochs)-memory claim is tested on:
        a streaming server retains no reports no matter how many were
        submitted, a retaining server holds every one.
        """
        return sum(
            1 if isinstance(item, Report) else int(item.values.size)
            for items in self._epochs.values()
            for item in items
        )

    def _require_epoch(self, epoch: int) -> None:
        known = self._moments if self.streaming else self._epochs
        if epoch not in known:
            raise ConfigurationError(f"no reports for epoch {epoch}")

    def _require_retained(self, what: str) -> None:
        if self.streaming:
            raise ConfigurationError(
                f"{what} needs the raw reports, which a streaming server does "
                "not retain; construct AggregationServer(streaming=False) or "
                "use the moment-based queries (summarize, count_above on "
                "registered thresholds, moments)"
            )

    def reports(self, epoch: int) -> List[Report]:
        """All reports of an epoch (retain mode only).

        Batch submissions are materialized into ``Report`` objects on
        demand, in submission order — the storage is columnar, the API
        is unchanged.
        """
        self._require_retained("reports()")
        self._require_epoch(epoch)
        out: List[Report] = []
        for item in self._epochs[epoch]:
            if isinstance(item, Report):
                out.append(item)
            else:
                out.extend(
                    Report(
                        device_id=device_id,
                        epoch=epoch,
                        value=float(value),
                        claimed_loss=item.claimed_loss,
                    )
                    for device_id, value in zip(item.device_ids, item.values)
                )
        return out

    def values(self, epoch: int) -> np.ndarray:
        """Reported values of an epoch (retain mode only)."""
        self._require_retained("values()")
        self._require_epoch(epoch)
        chunks = [
            np.asarray([item.value]) if isinstance(item, Report) else item.values
            for item in self._epochs[epoch]
        ]
        return np.concatenate(chunks) if chunks else np.zeros(0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def summarize(self, epoch: int) -> EpochSummary:
        """Aggregate statistics for one epoch (either mode)."""
        self._require_epoch(epoch)
        if self.streaming:
            m = self._moments[epoch]
            variance = m.m2 / m.n if m.n else 0.0
            debiased = (
                max(variance - 2.0 * self.noise_scale * self.noise_scale, 0.0)
                if self.noise_scale is not None and m.n > 1
                else None
            )
            return EpochSummary(
                epoch=epoch,
                n_reports=m.n,
                n_devices=m.n,
                mean=m.mean,
                median=float("nan"),
                variance=variance,
                variance_debiased=debiased,
            )
        reports = self.reports(epoch)
        vals = self.values(epoch)
        debiased = (
            debiased_variance(vals, self.noise_scale)
            if self.noise_scale is not None and vals.size > 1
            else None
        )
        return EpochSummary(
            epoch=epoch,
            n_reports=int(vals.size),
            n_devices=len({r.device_id for r in reports}),
            mean=float(vals.mean()),
            median=float(np.median(vals)),
            variance=float(vals.var()),
            variance_debiased=debiased,
        )

    def moments(self, epoch: int) -> Dict[str, object]:
        """Streaming-mode moment snapshot (count/mean/m2/min/max/count_above)."""
        if not self.streaming:
            raise ConfigurationError(
                "moments() is the streaming-mode accessor; a retaining server "
                "answers from the raw reports (values/summarize)"
            )
        self._require_epoch(epoch)
        return self._moments[epoch].snapshot()

    def count_above(self, epoch: int, threshold: float) -> int:
        """Counting query on an epoch's reports.

        Streaming mode only answers for thresholds registered at
        construction (``count_thresholds=...``) — the fold kept those
        counters; anything else would need the discarded reports.
        """
        if self.streaming:
            self._require_epoch(epoch)
            counters = self._moments[epoch].count_above
            key = float(threshold)
            if key not in counters:
                raise ConfigurationError(
                    f"threshold {threshold!r} was not registered at construction "
                    f"(count_thresholds={sorted(counters)}); a streaming server "
                    "only keeps pre-registered count-above counters"
                )
            return counters[key]
        return int(np.count_nonzero(self.values(epoch) > threshold))

    # ------------------------------------------------------------------
    # Categorical queries (support counts submitted via submit_counts)
    # ------------------------------------------------------------------
    @property
    def categorical_epochs(self) -> List[int]:
        """Epochs with categorical support counts, ascending."""
        return sorted(self._categories)

    def category_counts(self, epoch: int) -> Tuple[np.ndarray, int]:
        """``(support counts, n reports)`` of one categorical epoch."""
        bucket = self._categories.get(epoch)
        if bucket is None:
            raise ConfigurationError(f"no categorical counts for epoch {epoch}")
        return bucket.counts.copy(), bucket.n

    def frequency_estimates(self, epoch: int, mechanism) -> FrequencyEstimate:
        """Unbiased per-category frequency estimates for one epoch.

        ``mechanism`` supplies the realized support channel ``(p, q)``
        (any :class:`~repro.mechanisms.categorical.CategoricalMechanism`
        — the server needs only its public metadata, never its URNG).
        """
        counts, n = self.category_counts(epoch)
        return estimate_from_counts(mechanism, counts, n)

    def mean_trend(self) -> List[float]:
        """Per-epoch means across all collected epochs."""
        if self.streaming:
            return [self._moments[e].mean for e in self.epochs]
        return [float(self.values(e).mean()) for e in self.epochs]

    # ------------------------------------------------------------------
    # Ingestion endpoints
    # ------------------------------------------------------------------
    def ingest_handle(self) -> IngestHandle:
        """The server's thread-safe submission facade (one per server).

        Cached so every caller shares the same lock; see
        :class:`IngestHandle`.
        """
        if self._ingest_handle is None:
            self._ingest_handle = IngestHandle(self, self._ingest_lock)
        return self._ingest_handle

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready state snapshot — the service's ``snapshot`` reply.

        Per-epoch aggregates in both modes (streaming: the exact moment
        state; retain: the summary statistics), categorical support
        counts, the retention tally, and ``n_devices_tracked`` — the
        number of devices the disclosure ledger holds a total for (a
        Python ``int``).  Every number is derived from folded state
        only, so a snapshot of a streaming server fed over the socket is
        comparable field-for-field — bit-for-bit for the float moments —
        with one fed in-process with the same batches in the same order.
        """
        epochs: Dict[str, Dict[str, object]] = {}
        for epoch in self.epochs:
            if self.streaming:
                epochs[str(epoch)] = self._moments[epoch].snapshot()
            else:
                s = self.summarize(epoch)
                epochs[str(epoch)] = {
                    "count": s.n_reports,
                    "n_devices": s.n_devices,
                    "mean": s.mean,
                    "median": s.median,
                    "variance": s.variance,
                }
        categorical: Dict[str, Dict[str, object]] = {}
        for epoch in self.categorical_epochs:
            counts, n = self.category_counts(epoch)
            categorical[str(epoch)] = {
                "counts": [int(c) for c in counts],
                "n_reports": n,
            }
        return {
            "streaming": self.streaming,
            "epochs": epochs,
            "categorical_epochs": categorical,
            "n_retained_reports": self.n_retained_reports,
            "n_devices_tracked": len(self._ledger),
        }

    # ------------------------------------------------------------------
    def worst_case_disclosure(self, device_id: str) -> float:
        """Server-side composition bound on one device's disclosure.

        Sums the claimed per-report loss over *every* report the device
        sent.  The server cannot tell cached replays (which add no loss)
        from fresh reports, so this is deliberately conservative: it is
        always ≥ the device's own accountant (which is the authoritative
        number — privacy is enforced on-device).  The total is kept as a
        running per-device sum, so it works identically in streaming
        mode, where the reports themselves are gone.

        Totals live in one column of a
        :class:`~repro.aggregation.ledger.DisclosureLedger`, indexed by
        the device's slot in the ledger's
        :class:`~repro.aggregation.device_index.DeviceIndex` when the
        server is charged per id, or by fleet index when it is charged
        through :meth:`record_report_counts`.  Either way the total is
        the float a plain per-id dict walk over the same charges gives,
        bit for bit.
        """
        return self._ledger.total(device_id)

    @property
    def ledger(self) -> DisclosureLedger:
        """The disclosure ledger (read it; charge through the server)."""
        return self._ledger
