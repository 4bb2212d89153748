"""The coordinator: plan shards, run them, merge — deterministically.

:func:`run_sharded` is the one shard coordinator.  It owns every step a
sharded fleet run shares — input validation, the execution-plan
override, the dropout masks, the per-shard seed sequences, holding truth
and masks in place in one :class:`~repro.parallel.shm.ShmArena`, the
output layout, the pool map (or inline run), the shard-ordered fold, the
run's finish, trace adoption, counter merge and arena cleanup — and delegates
what differs to a small picklable *shard kernel*:

``reference()``
    The coordinator's reference arm: validates the configuration once,
    supplies the loss bound; never released, so it consumes no noise.
``row(width)`` / ``truth_row``
    ``(shape, dtype)`` of what a shard ``width`` devices wide writes per
    epoch: the row its server folds, and its reporting devices' truth
    reduced to what the run's truth summary needs.
``columns`` / ``with_devices``
    Per-device ``{name: (dtype, initial value)}`` columns the shards
    update, and whether the run hands the per-device columns back.
``build(seed_seq, pipeline)`` / ``step(arm, out, epoch, idx, start, rows, channel)``
    Worker side: the shard's arm on its audited stream, and one epoch's
    release written into row ``epoch`` of the shard's ``rows`` and
    ``truth`` regions.
``open_shard(arm, devices)``
    Worker side, once after ``build``, with ``devices`` the ``range`` of
    the shard's global device indices: whatever the arm can prepare for
    the whole shard (the categorical kernel binds an OLH arm to the
    range, so each device is hashed once for every epoch's encode and
    the decode sweep; the numeric kernel has nothing to do).
``close_shard(arm, out, start, steps)``
    Worker side, once after the shard's last epoch: whatever the kernel
    deferred across epochs, with ``steps`` the values ``step`` returned
    in epoch order (the categorical kernel decodes every OLH epoch of
    the shard in one hash sweep here; the numeric kernel has nothing
    to do).
``submit(server, epoch, row, n, loss, start, mask)``
    Coordinator side: one (epoch, shard) row of ``n`` reports into the
    server (``mask`` is the shard's reporting row, ``start`` its first
    device).

:class:`NumericKernel` (here, behind :func:`run_fleet_sharded`) and
:class:`~repro.parallel.categorical.CategoricalKernel` (behind
:func:`~repro.parallel.categorical.run_fleet_categorical`) are the two.

The output layout comes from the plan alone (:func:`allocate_outputs`):
per shard, ``(n_epochs,) + row`` and ``(n_epochs,) + truth_row``
regions, an ``(n_epochs,)`` report count ``n``, and one entry per
device of ``report_counts`` and of each kernel column.
:func:`~repro.parallel.worker.run_shard` writes ``n`` and
``report_counts``.  The coordinator then folds each nonempty (epoch,
shard) row in shard order through the kernel's ``submit``, divides the
summed truth rows by each epoch's report count (the true means or
frequencies), and charges a streaming server's composition bound with
one ``record_report_counts`` call over ``report_counts``.

The coordinator validates the truth matrix's shape and ``dropout``
before any shared-memory block exists, then draws the masks.  Neither
the truth nor the masks is copied: the arena *holds* both
(:meth:`~repro.parallel.shm.ShmArena.hold`) and each shard reads its
columns where they lie.  A pool is created with the ``fork`` start
method after the hold, so its workers inherit the inputs — and the
coordinator's warm codebook cache — as copy-on-write pages; an inline
``workers=1`` run reads them in its own process.  Shared memory carries
the outputs only.  A platform without ``fork`` runs ``workers=1`` only.

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
  loop makes — then read in place by the workers; workers consume only
  their audited stream.
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
import itertools
import math
import multiprocessing
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..aggregation.device import Device
from ..aggregation.fleet import FleetResult
from ..aggregation.ledger import fleet_device_id
from ..aggregation.server import AggregationServer, batch_moments
from ..errors import BudgetExhaustedError, ConfigurationError
from ..mechanisms import SensorSpec, make_mechanism
from ..rng.urng import SplitStreamSource, audited_generator, shard_seed_sequences
from ..runtime import ArrayCharge, CounterSink
from ..runtime.events import ReleaseEvent
from ..runtime.pipeline import ReleasePipeline, default_pipeline
from .planner import ExecutionPlan
from .sharding import ShardPlan, plan_shards
from .shm import ShmArena
from .worker import ShardResult, ShardTask, run_shard

__all__ = [
    "NumericKernel", "ShardedRun", "allocate_outputs", "run_sharded", "run_fleet_sharded",
]


def _resolve_kernel(mechanism) -> None:
    """Resolve a fixed-point arm's sampling kernel (building its codebook
    into the process-wide cache); a no-op for arms without one."""
    rng = getattr(mechanism, "rng", None)
    if hasattr(rng, "kernel"):
        rng.kernel


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


def _check_fleet(true_values: np.ndarray, dropout: float) -> None:
    """Refuse a truth matrix that is not ``(n_epochs, n_devices >= 1)``
    or a ``dropout`` outside ``[0, 1)``."""
    if true_values.ndim != 2:
        raise ConfigurationError("true_values must be (n_epochs, n_devices)")
    if true_values.shape[1] < 1:
        raise ConfigurationError("n_devices must be >= 1")
    if not 0.0 <= dropout < 1.0:
        raise ConfigurationError("dropout must be in [0, 1)")


def draw_reporting(
    true_values: np.ndarray, dropout: float, rng: Optional[np.random.Generator]
) -> np.ndarray:
    """Validate a fleet's shape and draw its ``(n_epochs, n_devices)`` masks.

    All of a fleet's simulation randomness: one ``random(n)`` per epoch,
    plus one ``integers(n)`` on an all-straggler epoch (never a silent
    epoch), so a given ``rng`` seed yields the same reporting sets on
    every plan and on the scalar reference loop.
    """
    _check_fleet(true_values, dropout)
    n_epochs, n_devices = true_values.shape
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
    #: Shard counters merged in shard order.
    counters: CounterSink
    #: Per epoch, the shards' truth rows summed in shard order and
    #: divided by the epoch's report count: the same for any worker count.
    truth: np.ndarray
    #: With ``kernel.with_devices``, ``report_counts`` and the kernel's
    #: per-device columns, in device order; else ``None``.
    columns: Optional[Dict[str, np.ndarray]]


def _shard_regions(arena: ShmArena, plan: ShardPlan, shape, dtype, initial=0):
    """One block holding every shard's ``shape(width)`` region, in shard
    order: the block's flat ref and each shard's ref into it."""
    shapes = [shape(stop - start) for start, stop in plan.slices]
    sizes = [math.prod(s) for s in shapes]
    block = arena.allocate((sum(sizes),), dtype)
    if initial:  # fresh blocks are already zero pages
        arena.view(block)[...] = initial
    offsets = itertools.accumulate(sizes, initial=0)
    return block, [block.sub(offset, s) for offset, s in zip(offsets, shapes)]


def allocate_outputs(kernel, arena: ShmArena, plan: ShardPlan, n_epochs: int):
    """A run's output regions, laid out from the plan alone: per name,
    the whole-run block ref and every shard's share of it."""
    row_dtype = kernel.row(1)[1]
    truth_shape, truth_dtype = kernel.truth_row

    def per_device(width):
        return (width,)

    layout = {
        "rows": (lambda width: (n_epochs, *kernel.row(width)[0]), row_dtype, 0),
        "truth": (lambda width: (n_epochs, *truth_shape), truth_dtype, 0),
        "n": (lambda width: (n_epochs,), np.int64, 0),
        "report_counts": (per_device, np.int64, 0),
        **{
            name: (per_device, dtype, initial)
            for name, (dtype, initial) in kernel.columns.items()
        },
    }
    blocks, shard_refs = {}, [{} for _ in plan.slices]
    for name, (shape, dtype, initial) in layout.items():
        blocks[name], refs = _shard_regions(arena, plan, shape, dtype, initial)
        for shard, ref in zip(shard_refs, refs):
            shard[name] = ref
    return blocks, shard_refs


def _fold(kernel, server, arena, plan, blocks, shard_refs, reporting, loss):
    """Fold every nonempty (epoch, shard) row in shard order, then the
    run's truth summary and per-device columns (copied out of the arena)."""
    n_epochs = reporting.shape[0]
    rows = [arena.view(refs["rows"]) for refs in shard_refs]
    n = arena.view(blocks["n"]).reshape(plan.n_shards, n_epochs)
    for epoch in range(n_epochs):
        for s, (start, stop) in enumerate(plan.slices):
            if n[s, epoch]:
                # dplint: allow[DPL006] -- a row is the shard's privatized
                # release; the arena also holds the truth, which never
                # reaches the server, and the mask is the reporting set.
                kernel.submit(
                    server, epoch, rows[s][epoch], int(n[s, epoch]), loss,
                    start, reporting[epoch, start:stop],
                )
    truth_shape = kernel.truth_row[0]
    totals = arena.view(blocks["truth"]).reshape(
        (plan.n_shards, n_epochs, *truth_shape)
    ).sum(axis=0)
    truth = totals / n.sum(axis=0).reshape((n_epochs,) + (1,) * len(truth_shape))
    report_counts = arena.view(blocks["report_counts"])
    if server.streaming:
        # The composition bound, in bulk: every report claims the same
        # per-release loss.
        server.record_report_counts(report_counts, loss)
    if not kernel.with_devices:
        return truth, None
    names = ("report_counts", *kernel.columns)
    return truth, {name: arena.view(blocks[name]).copy() for name in names}


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
    pool) — same results, no multiprocessing overhead; ``workers > 1``
    needs the ``fork`` start method.  ``shards``
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
    if workers > 1 and "fork" not in multiprocessing.get_all_start_methods():
        raise ConfigurationError(
            "workers > 1 needs the 'fork' start method: pool workers read the "
            "coordinator's inputs from the pages they inherit; use workers=1"
        )
    reject_shared_sources(kernel)
    _check_fleet(true_values, dropout)  # before any shm block exists
    n_epochs, n_devices = true_values.shape
    plan = plan_shards(n_devices, shards)
    reference = kernel.reference()
    # Pool workers fork from this process and inherit its codebook
    # cache: the table is built here, once, for every shard's arm.
    _resolve_kernel(reference)
    loss = reference.claimed_loss_bound
    seqs = shard_seed_sequences(source_seed, plan.n_shards)
    reporting = draw_reporting(true_values, dropout, rng)

    arena = ShmArena()
    try:
        # The inputs stay where they are: each shard reads its columns
        # of the held matrices (a pool worker through the pages it
        # inherits at fork).  Blocks carry the outputs only.
        truth_ref, reporting_ref = arena.hold([true_values, reporting])
        blocks, shard_refs = allocate_outputs(kernel, arena, plan, n_epochs)
        tasks = [
            ShardTask(
                kernel=kernel,
                shard_index=s,
                n_shards=plan.n_shards,
                start=start,
                seed_seq=seqs[s],
                truth=truth_ref.columns(start, stop),
                reporting=reporting_ref.columns(start, stop),
                outputs=shard_refs[s],
            )
            for s, (start, stop) in enumerate(plan.slices)
        ]
        if workers == 1:
            results: List[ShardResult] = [run_shard(t) for t in tasks]
        else:
            # Pinned to fork: the held inputs and the warm codebook cache
            # reach the workers only as inherited pages.
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, plan.n_shards),
                mp_context=multiprocessing.get_context("fork"),
            ) as pool:
                # map() yields in shard order, so a failing shard surfaces
                # deterministically (lowest shard index first).
                results = list(pool.map(run_shard, tasks))
        # Every view of the arena dies with _fold's frame, before close().
        truth, columns = _fold(
            kernel, server, arena, plan, blocks, shard_refs, reporting, loss
        )
    finally:
        arena.close()

    target_pipeline = pipeline if pipeline is not None else default_pipeline()
    if execution_plan is not None:
        target_pipeline.adopt([plan_trace_event(execution_plan)])
    for result in results:
        target_pipeline.adopt(result.events)
    counters = functools.reduce(
        CounterSink.merge, (r.counter for r in results), CounterSink()
    )
    return ShardedRun(plan, reference, counters, truth, columns)


#: Per-device state a budgeted numeric shard writes back: (dtype,
#: initial value).  An unbudgeted run keeps none of it.
_DEVICE_STATE = {
    "n_fresh": (np.int64, 0),
    "n_cached": (np.int64, 0),
    "cached_codes": (np.float64, np.nan),
}


@dataclasses.dataclass(frozen=True)
class NumericKernel:
    """Shard kernel of a numeric fleet: one scalar release per report.

    Rows — each kernel ships exactly what its server keeps:

    streaming server
        Each shard's :func:`~repro.aggregation.server.batch_moments`
        row per epoch, ``(n, mean, m2, min, max)`` plus one count per
        registered threshold (``count_thresholds``, T of them), for
        ``submit_moments``.  No per-report region exists.
    retaining server
        A row as wide as the shard, the epoch's privatized values in its
        first ``n`` slots, for ``submit_array`` with the reports'
        device ids.

    The truth row is the epoch's sum of the shard's reporting devices'
    true values.  The per-device budget and cache columns
    (``remaining``, ``n_fresh``, ``n_cached``, ``cached_codes``) exist
    only with a ``device_budget``.  Without one, every release is
    uncharged, so no report is a cache replay and every report counted
    in ``report_counts`` is fresh.

    ``threshold`` pins the guarded arms' threshold: the coordinator
    calibrates it once on its reference arm and every shard's arm is
    built on that value instead of recalibrating.  ``streaming`` and
    ``count_thresholds`` are the server's, so the shards reduce what
    it would reduce.
    """

    arm: str
    sensor: SensorSpec
    epsilon: float
    device_budget: Optional[float]
    kwargs: Dict[str, object]
    with_devices: bool = True
    threshold: Optional[float] = None
    streaming: bool = False
    count_thresholds: Tuple[float, ...] = ()
    #: A generator instance (``noise_rng``) carries its own source: under
    #: a pool, its pickled copies would hand every shard the same stream.
    forbidden = ("source", "rng", "noise_rng", "pipeline")
    truth_row = ((), np.float64)

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

    def row(self, width):
        if self.streaming:
            return (5 + len(self.count_thresholds),), np.float64
        return (width,), np.float64

    @property
    def columns(self):
        if self.device_budget is None:
            return {}
        return {"remaining": (np.float64, float(self.device_budget)), **_DEVICE_STATE}

    def build(self, seed_seq, pipeline):
        if self.arm != "ideal":
            mechanism = self._make(source=SplitStreamSource(seed_seq), pipeline=pipeline)
        else:
            mechanism = self._make(rng=audited_generator(seed_seq), pipeline=pipeline)
        _resolve_kernel(mechanism)  # before the epoch loop
        return mechanism

    def step(self, mechanism, out, epoch, idx, start, rows, channel):
        out["truth"][epoch] = rows.sum()
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
        if self.streaming:
            # The same float64 batch the server would read back and fold.
            values = np.ascontiguousarray(outcome.values, dtype=np.float64)
            out["rows"][epoch] = batch_moments(values, self.count_thresholds)
        else:
            out["rows"][epoch, : idx.size] = outcome.values

    def open_shard(self, mechanism, devices):
        pass

    def close_shard(self, mechanism, out, start, steps):
        pass

    def submit(self, server, epoch, row, n, loss, start, mask):
        if self.streaming:
            server.submit_moments(epoch, row, loss)
            return
        # Donated: retain mode copies the view before storing it.
        idx = start + np.flatnonzero(mask)
        server.submit_array(
            epoch,
            row[:n],
            loss,
            device_ids=[fleet_device_id(i) for i in idx],
            donate=True,
        )


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
    reject_shared_sources(kernel)  # before the reference arm is built
    server = AggregationServer(
        noise_scale=kernel.noise_scale,
        streaming=streaming,
        count_thresholds=count_thresholds,
    )
    # The call's one threshold calibration: every shard's arm is built on
    # the reference arm's value (arms without a threshold leave it None).
    # The shards reduce what the server keeps.
    kernel = dataclasses.replace(
        kernel,
        threshold=getattr(kernel.reference(), "threshold", None),
        streaming=server.streaming,
        count_thresholds=server.count_thresholds,
    )
    run = run_sharded(
        kernel, true_values, server, dropout=dropout, rng=rng,
        source_seed=source_seed, pipeline=pipeline, workers=workers,
        shards=shards, execution_plan=execution_plan,
    )
    state = run.columns
    devices: List[Device] = []
    if with_devices:
        # Unbudgeted releases are never cache replays: every report is fresh.
        n_fresh = state.get("n_fresh", state["report_counts"])
        for i in range(run.plan.n_devices):
            dev = Device(fleet_device_id(i), run.reference, budget=device_budget)
            dev.n_fresh = int(n_fresh[i])
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
        true_means=run.truth.tolist(),
        estimated_means=[server.summarize(e).mean for e in server.epochs],
        counters=run.counters,
        shard_plan=run.plan,
    )
