"""The coordinator: plan shards, run them, merge — deterministically.

:func:`run_sharded` is the one shard coordinator.  It owns every step a
sharded fleet run shares — input validation, the execution-plan
override, the dropout masks, the per-shard seed sequences, packing truth
and masks into one :class:`~repro.parallel.shm.ShmArena`, the pool map
(or inline run), the shard-ordered fold, trace adoption, counter merge
and arena cleanup — and delegates what differs to a small picklable
*shard kernel*:

``reference()``
    The coordinator's reference arm: validates the configuration once,
    supplies the loss bound; never released, so it consumes no noise.
``allocate(arena, plan, counts)``
    The run's output regions: whole-run refs plus each shard's share.
``build(seed_seq, pipeline)`` / ``step(...)``
    Worker side: the shard's arm on its audited stream, and one epoch's
    release written into the shard's output regions.
``close_shard(arm, out, start, steps)``
    Worker side, once after the shard's last epoch: whatever the kernel
    deferred across epochs, with ``steps`` the values ``step`` returned
    in epoch order (the categorical kernel decodes every OLH epoch of
    the shard in one hash sweep here; the numeric kernel has nothing
    to do).
``fold(...)`` / ``finish(...)``
    Coordinator side: one (epoch, shard) cell into the server, then the
    run's bulk bookkeeping.

:class:`NumericKernel` (here, behind :func:`run_fleet_sharded`) and
:class:`~repro.parallel.categorical.CategoricalKernel` (behind
:func:`~repro.parallel.categorical.run_fleet_categorical`) are the two.

The numeric kernel's guarded arm is calibrated once per call, on the
reference arm, and every shard's ``build`` gets that threshold
(``threshold=``).  Its ``step`` also writes the epoch's sum of true
values into the shard's row of a small ``(n_shards, n_epochs)`` region,
which ``finish`` turns into the true means; and its per-device budget
and cache columns exist only with a device budget.

The contract:

* **Determinism across worker counts.**  The shard plan and the
  per-shard noise streams (``SeedSequence.spawn`` sub-seeds of the fleet
  seed) depend only on ``(n_devices, shards, source_seed)`` — never on
  ``workers``.  A run with ``workers=4`` is bit-identical to
  ``workers=1``.
* **One-shard plans run on the root stream.**  ``shards=1`` uses the
  *root* seed sequence (no spawn) — the plan
  :func:`~repro.aggregation.fleet.run_fleet` runs by default — so its
  single shard consumes exactly the stream the scalar reference loop
  (``run_fleet(batched=False)``) builds its arm on: bit-identical
  reports for single-draw arms.
* **Coordinator-owned simulation randomness.**  Dropout masks are drawn
  here by :func:`draw_reporting` — the same call the scalar reference
  loop makes — then shipped to the workers; workers consume only their
  audited stream.
* **Shard-ordered merge.**  Server submissions, trace events
  (re-numbered through :meth:`~repro.runtime.ReleasePipeline.adopt`),
  counter aggregates and per-device budget state all fold in shard
  order, so every merged artifact is reproducible.

Note on traces: in a sharded run each ``ReleaseEvent`` is per
(epoch, shard) — channel ``epoch-E/shard-S`` — and its
``budget_remaining`` is the *shard's* remaining budget sum, not the
fleet's (each worker only sees its slice).  Fleet-wide budget state
lives on the returned devices.  A one-shard run keeps the plain
``epoch-E`` channel, one event per epoch.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..aggregation.device import Device
from ..aggregation.fleet import FleetResult
from ..aggregation.ledger import fleet_device_id
from ..aggregation.server import AggregationServer
from ..errors import BudgetExhaustedError, ConfigurationError
from ..mechanisms import SensorSpec, make_mechanism
from ..rng.codebook import backend_fingerprint, codebook_cache
from ..rng.urng import SplitStreamSource, audited_generator, shard_seed_sequences
from ..runtime import ArrayCharge, CounterSink
from ..runtime.events import ReleaseEvent
from ..runtime.pipeline import ReleasePipeline, default_pipeline
from .planner import ExecutionPlan
from .sharding import ShardPlan, plan_shards
from .shm import ShmArena
from .worker import (
    CodebookShipment,
    ShardResult,
    ShardTask,
    install_shipments,
    run_shard,
)

__all__ = ["NumericKernel", "ShardedRun", "run_sharded", "run_fleet_sharded"]


def _shippable(fingerprint) -> bool:
    # Identity-keyed fingerprints (unknown backends) cannot be shared
    # across processes — the worker-side unpickled instance has a new
    # id, so the worker rebuilds its table (deterministically) instead.
    return not (len(fingerprint) == 3 and fingerprint[1] == "id")


def _codebook_shipments(mechanism) -> List[CodebookShipment]:
    """Extract the coordinator's resolved codebook for worker warm-up."""
    rng = getattr(mechanism, "rng", None)
    if rng is None or not hasattr(rng, "kernel"):
        return []
    if rng.kernel != "codebook":
        return []
    entry = codebook_cache().peek(rng.config, rng.log_backend)
    fingerprint = backend_fingerprint(rng.log_backend)
    if entry is None or not _shippable(fingerprint):
        return []
    return [
        CodebookShipment(
            config=rng.config, fingerprint=fingerprint, table=entry.table
        )
    ]


def plan_trace_event(execution_plan: ExecutionPlan) -> ReleaseEvent:
    """The plan-echo event: scheduling metadata, visibly not a release.

    ``batch=0``/``draws=0`` and a ``plan/...`` channel make it inert for
    every counter that aggregates draws or batches; it exists so a trace
    records *how* the run was scheduled next to what it released.
    """
    return ReleaseEvent(
        seq=0,  # renumbered on adoption
        mechanism="execution-plan",
        epsilon=0.0,
        claimed_loss=0.0,
        guard="none",
        batch=0,
        draws=0,
        resample_rounds=0,
        max_rounds_used=0,
        channel=f"plan/{execution_plan.describe()}",
    )


def reject_shared_sources(kernel) -> None:
    """Refuse a shared noise source, generator or pipeline instance:
    every fleet run derives its own from ``source_seed``/``pipeline``."""
    for name in kernel.forbidden:
        if name in kernel.kwargs:
            raise ConfigurationError(
                f"fleet runs derive {name!r} from source_seed/pipeline; "
                "pass those instead of a shared instance"
            )


def draw_reporting(
    true_values: np.ndarray, dropout: float, rng: Optional[np.random.Generator]
) -> np.ndarray:
    """Validate a fleet's shape and draw its ``(n_epochs, n_devices)`` masks.

    All of a fleet's simulation randomness: one ``random(n)`` per epoch,
    plus one ``integers(n)`` on an all-straggler epoch (never a silent
    epoch), so a given ``rng`` seed yields the same reporting sets on
    every plan and on the scalar reference loop.
    """
    if true_values.ndim != 2:
        raise ConfigurationError("true_values must be (n_epochs, n_devices)")
    n_epochs, n_devices = true_values.shape
    if n_devices < 1:
        raise ConfigurationError("n_devices must be >= 1")
    if not 0.0 <= dropout < 1.0:
        raise ConfigurationError("dropout must be in [0, 1)")
    # dplint: allow[DPL001] -- dropout/straggler simulation randomness only;
    # release noise comes from the fleet's audited sources.
    rng = rng or np.random.default_rng()
    reporting = np.empty((n_epochs, n_devices), dtype=bool)
    for epoch in range(n_epochs):
        mask = rng.random(n_devices) >= dropout
        if not mask.any():
            mask[int(rng.integers(n_devices))] = True  # never a silent epoch
        reporting[epoch] = mask
    return reporting


class ShardedRun(NamedTuple):
    """What :func:`run_sharded` hands back to its wrapper."""

    plan: ShardPlan
    #: The coordinator's reference arm (never released).
    reference: object
    #: Coordinator-drawn reporting masks, ``(n_epochs, n_devices)`` bool.
    reporting: np.ndarray
    #: Shard counters merged in shard order.
    counters: CounterSink
    #: Whatever the kernel's ``finish`` returned.
    collected: object


def run_sharded(
    kernel,
    true_values: np.ndarray,
    server,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    source_seed=None,
    pipeline: Optional[ReleasePipeline] = None,
    workers: int = 1,
    shards: Optional[int] = None,
    execution_plan: Optional[ExecutionPlan] = None,
) -> ShardedRun:
    """Run ``kernel`` over a fleet epoch matrix and fold it into ``server``.

    ``true_values`` is the ``(n_epochs, n_devices)`` truth matrix, already
    in the kernel's dtype.  ``workers=1`` runs the shards inline (no
    pool) — same results, no multiprocessing overhead.  ``shards``
    defaults to :data:`~repro.parallel.sharding.DEFAULT_SHARDS`, clamped
    to ``n_devices``, and is part of the reproducibility key.  An
    ``execution_plan`` (usually from
    :func:`~repro.parallel.planner.plan_execution`) overrides ``workers``
    (and ``shards`` when not explicitly given) and is echoed into the
    trace as an ``execution-plan`` event.
    """
    if execution_plan is not None:
        workers = execution_plan.workers
        if shards is None:
            shards = execution_plan.shards

    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    reject_shared_sources(kernel)
    reporting = draw_reporting(true_values, dropout, rng)
    n_epochs, n_devices = true_values.shape
    plan = plan_shards(n_devices, shards)
    reference = kernel.reference()
    loss = reference.claimed_loss_bound

    # counts[s, e]: reports of shard s in epoch e.  Output layouts are
    # fully determined by these, so no size metadata rides back; the
    # cursor is where each (shard, epoch) cell starts in a flat
    # shard-major report region.
    counts = np.stack(
        [reporting[:, start:stop].sum(axis=1) for start, stop in plan.slices]
    ).astype(np.int64)
    cursor = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)

    seqs = shard_seed_sequences(source_seed, plan.n_shards)
    arena = ShmArena()
    out: Dict[str, np.ndarray] = {}
    try:
        # One block per array kind, every shard's slice packed inside.
        truth_refs = arena.pack(
            [true_values[:, start:stop] for start, stop in plan.slices]
        )
        reporting_refs = arena.pack(
            [reporting[:, start:stop] for start, stop in plan.slices]
        )
        out_refs, shard_out_refs = kernel.allocate(arena, plan, counts)
        tasks = [
            ShardTask(
                kernel=kernel,
                shard_index=s,
                n_shards=plan.n_shards,
                start=start,
                seed_seq=seqs[s],
                truth=truth_refs[s],
                reporting=reporting_refs[s],
                outputs=shard_out_refs[s],
            )
            for s, (start, _) in enumerate(plan.slices)
        ]
        if workers == 1:
            results: List[ShardResult] = [run_shard(t) for t in tasks]
        else:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, plan.n_shards),
                initializer=install_shipments,
                initargs=(_codebook_shipments(reference),),
            ) as pool:
                # map() yields in shard order, so a failing shard surfaces
                # deterministically (lowest shard index first).
                results = list(pool.map(run_shard, tasks))

        # ---- fold, in shard order -------------------------------------
        out.update((name, arena.view(ref)) for name, ref in out_refs.items())
        for epoch in range(n_epochs):
            for s, (start, stop) in enumerate(plan.slices):
                lo = int(cursor[s, epoch])
                hi = lo + int(counts[s, epoch])
                if lo == hi:
                    continue
                kernel.fold(
                    server, out, epoch, s, slice(lo, hi),
                    reporting[epoch, start:stop], start, loss,
                )
        collected = kernel.finish(server, out, reporting, loss)
    finally:
        # Drop the views before close() so every mapping can actually
        # unmap (unlink succeeds regardless).
        out.clear()
        arena.close()

    target_pipeline = pipeline if pipeline is not None else default_pipeline()
    if execution_plan is not None:
        target_pipeline.adopt([plan_trace_event(execution_plan)])
    for result in results:
        target_pipeline.adopt(result.events)
    counters = functools.reduce(
        CounterSink.merge, (r.counter for r in results), CounterSink()
    )
    return ShardedRun(plan, reference, reporting, counters, collected)


#: Per-device state a budgeted numeric shard writes back: (dtype,
#: initial value).  An unbudgeted run keeps none of it (see ``finish``).
_DEVICE_STATE = {
    "n_fresh": (np.int64, 0),
    "n_cached": (np.int64, 0),
    "cached_codes": (np.float64, np.nan),
}


@dataclasses.dataclass(frozen=True)
class NumericKernel:
    """Shard kernel of a numeric fleet: one scalar release per report.

    Outputs:

    ``values``
        The flat privatized-value region (epochs in order within each
        shard, shards in order).
    ``sums``
        ``(n_shards, n_epochs)`` float64: each shard's sum of its
        reporting devices' true values per epoch, from which ``finish``
        derives the fleet's true means without gathering the truth
        matrix again.
    ``remaining``, ``n_fresh``, ``n_cached``, ``cached_codes``
        Per-device budget and cache columns, allocated only with a
        ``device_budget``.  Without one, every release is uncharged, so
        no report is a cache replay and ``finish`` derives the same
        state from the reporting masks.

    ``threshold`` pins the guarded arms' threshold: the coordinator
    calibrates it once on its reference arm and every shard's arm is
    built on that value instead of recalibrating.
    """

    arm: str
    sensor: SensorSpec
    epsilon: float
    device_budget: Optional[float]
    kwargs: Dict[str, object]
    with_devices: bool = True
    threshold: Optional[float] = None
    forbidden = ("source", "rng", "pipeline")

    @property
    def noise_scale(self) -> Optional[float]:
        """λ of the arm's Laplace noise (``None`` for randomized response)."""
        return self.sensor.d / self.epsilon if self.arm != "rr" else None

    def _make(self, **extra):
        kwargs = dict(self.kwargs)
        if self.arm != "ideal":
            kwargs.setdefault("input_bits", 14)
        if self.threshold is not None:
            kwargs["threshold"] = self.threshold
        kwargs.update(extra)
        return make_mechanism(self.arm, self.sensor, self.epsilon, **kwargs)

    def reference(self):
        return self._make()

    def allocate(self, arena: ShmArena, plan: ShardPlan, counts: np.ndarray):
        columns = {}
        if self.device_budget is not None:
            columns = dict(_DEVICE_STATE)
            columns["remaining"] = (np.float64, float(self.device_budget))
        totals = counts.sum(axis=1)
        n_epochs = counts.shape[1]
        refs = {
            "values": arena.allocate((max(int(totals.sum()), 1),), np.float64),
            "sums": arena.allocate((plan.n_shards, n_epochs), np.float64),
        }
        for name, (dtype, initial) in columns.items():
            refs[name] = arena.allocate((plan.n_devices,), dtype)
            if initial:  # fresh blocks are already zero pages
                arena.view(refs[name])[...] = initial
        bases = np.cumsum(totals) - totals
        shard_refs = []
        for s, (start, stop) in enumerate(plan.slices):
            shard = {
                "values": refs["values"].sub(int(bases[s]), (int(totals[s]),)),
                "sums": refs["sums"].sub(s * n_epochs, (n_epochs,)),
            }
            shard.update(
                (name, refs[name].sub(start, (stop - start,))) for name in columns
            )
            shard_refs.append(shard)
        return refs, shard_refs

    def build(self, seed_seq, pipeline):
        if self.arm != "ideal":
            mechanism = self._make(source=SplitStreamSource(seed_seq), pipeline=pipeline)
        else:
            mechanism = self._make(rng=audited_generator(seed_seq), pipeline=pipeline)
        if hasattr(mechanism, "rng") and hasattr(mechanism.rng, "kernel"):
            mechanism.rng.kernel  # resolve the codebook before the epoch loop
        return mechanism

    def step(self, mechanism, out, epoch, idx, start, rows, cursor, channel):
        out["sums"][epoch] = rows.sum()
        if self.device_budget is None:
            outcome = mechanism.release(rows, channel=channel)
        else:
            accounting = ArrayCharge(
                out["remaining"], out["cached_codes"], mechanism.claimed_loss_bound,
                index=idx,
            )
            try:
                outcome = mechanism.release(rows, accounting=accounting, channel=channel)
            except BudgetExhaustedError as exc:
                # Typed, picklable: crosses the pool boundary as the same
                # error the scalar reference loop raises.
                raise ConfigurationError(str(exc)) from exc
            hits = outcome.cache_hits
            out["n_fresh"][idx] += ~hits
            out["n_cached"][idx] += hits
        out["values"][cursor : cursor + idx.size] = outcome.values

    def close_shard(self, mechanism, out, start, steps):
        pass

    def fold(self, server, out, epoch, shard, reports, mask, start, loss):
        # Donated: streaming moments consume the view immediately, retain
        # mode copies it before storing.
        values = out["values"][reports]
        if server.streaming:
            server.submit_array(epoch, values, loss, donate=True)
        else:
            idx = start + np.flatnonzero(mask)
            server.submit_array(
                epoch,
                values,
                loss,
                device_ids=[fleet_device_id(i) for i in idx],
                donate=True,
            )

    def finish(self, server, out, reporting, loss):
        """``(true_means, device state or None)``.

        The true means sum the shards' partial sums in shard order, so
        they are the same for any worker count; on a multi-shard plan
        the float order differs from one mean over the epoch's reports
        in the last bits.
        """
        # Shards are rows, summed top to bottom.  (A per-row
        # count_nonzero is ~8x faster than a sum along axis 1.)
        n_reports = np.array([np.count_nonzero(mask) for mask in reporting])
        true_means = (out["sums"].sum(axis=0) / n_reports).tolist()
        report_counts = reporting.sum(axis=0)
        if server.streaming:
            # The composition bound, recorded in bulk: every report claims
            # the same per-release loss, and the report count per device is
            # fixed by the coordinator-drawn masks.
            server.record_report_counts(report_counts, loss)
        if not self.with_devices:
            return true_means, None
        if self.device_budget is None:
            # Uncharged releases are never cache replays: every report is
            # fresh, none is cached and no code is kept.
            return true_means, {"n_fresh": report_counts}
        return true_means, {
            name: out[name].copy() for name in (*_DEVICE_STATE, "remaining")
        }


def run_fleet_sharded(
    true_values: np.ndarray,
    sensor: SensorSpec,
    epsilon: float,
    arm: str = "thresholding",
    device_budget: Optional[float] = None,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    source_seed=None,
    pipeline: Optional[ReleasePipeline] = None,
    workers: int = 1,
    shards: Optional[int] = None,
    streaming: bool = False,
    count_thresholds: Sequence[float] = (),
    with_devices: bool = True,
    execution_plan: Optional[ExecutionPlan] = None,
    **mechanism_kwargs,
):
    """Run a fleet epoch matrix sharded across worker processes.

    Parameters beyond :func:`~repro.aggregation.fleet.run_fleet` (see
    :func:`run_sharded` for ``workers``, ``shards`` and
    ``execution_plan``):

    ``streaming``
        Build the server with ``streaming=True``: shard batches fold
        into per-epoch running moments, O(epochs) server memory.
    ``count_thresholds``
        Thresholds whose count-above counters a streaming server keeps.
    ``with_devices``
        ``False`` skips materializing per-device ``Device`` objects
        (the 50k-device benchmark path); the result's ``devices`` list
        is then empty.  Budget enforcement is unaffected — it is
        vectorized in the workers either way.
    """
    true_values = np.asarray(true_values, dtype=float)
    kernel = NumericKernel(
        arm=arm,
        sensor=sensor,
        epsilon=epsilon,
        device_budget=device_budget,
        kwargs=dict(mechanism_kwargs),
        with_devices=with_devices,
    )
    # The call's one threshold calibration: every shard's arm is built on
    # the reference arm's value (arms without a threshold leave it None).
    kernel = dataclasses.replace(
        kernel, threshold=getattr(kernel.reference(), "threshold", None)
    )
    server = AggregationServer(
        noise_scale=kernel.noise_scale,
        streaming=streaming,
        count_thresholds=count_thresholds,
    )
    run = run_sharded(
        kernel, true_values, server, dropout=dropout, rng=rng,
        source_seed=source_seed, pipeline=pipeline, workers=workers,
        shards=shards, execution_plan=execution_plan,
    )
    true_means, state = run.collected

    devices: List[Device] = []
    if with_devices:
        for i in range(run.plan.n_devices):
            dev = Device(fleet_device_id(i), run.reference, budget=device_budget)
            dev.n_fresh = int(state["n_fresh"][i])
            if device_budget is not None:
                dev.n_cached = int(state["n_cached"][i])
                dev._accountant._spent = float(device_budget) - float(
                    state["remaining"][i]
                )
                if not np.isnan(state["cached_codes"][i]):
                    dev._cache.code = float(state["cached_codes"][i])
            devices.append(dev)

    return FleetResult(
        server=server,
        devices=devices,
        true_means=true_means,
        estimated_means=[server.summarize(e).mean for e in server.epochs],
        counters=run.counters,
        shard_plan=run.plan,
    )
