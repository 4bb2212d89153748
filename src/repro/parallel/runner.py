"""The coordinator: plan shards, run them, merge — deterministically.

:func:`run_fleet_sharded` is the multi-core counterpart of
:func:`repro.aggregation.fleet.run_fleet`'s batched path.  The contract:

* **Determinism across worker counts.**  The shard plan and the
  per-shard noise streams (``SeedSequence.spawn`` sub-seeds of the fleet
  seed) depend only on ``(n_devices, shards, source_seed)`` — never on
  ``workers``.  A run with ``workers=4`` is bit-identical to
  ``workers=1`` for the single-draw guards (thresholding / baseline /
  rr); resampling agrees in distribution (its redraw interleaving is
  batch-shaped, as in the unsharded fleet).
* **Determinism across transports.**  The shared-memory data plane
  (``shm=True``, auto-enabled under a pool) only changes where bytes
  live; workers privatize the identical slices with the identical
  streams, so shm and pickle runs are bit-identical.
* **Bridge to the legacy path.**  ``shards=1`` uses the *root* seed
  sequence (no spawn), so its single shard consumes exactly the stream
  ``run_fleet(batched=True, source_seed=...)`` consumes — bit-identical
  to the unsharded fleet, event channels included.
* **Coordinator-owned simulation randomness.**  Dropout masks are drawn
  here with the same generator call pattern as the unsharded fleet, then
  shipped to the workers; workers consume only their audited stream.
* **Shard-ordered merge.**  Server submissions, trace events
  (re-numbered through :meth:`~repro.runtime.ReleasePipeline.adopt`),
  counter aggregates and per-device budget state all fold in shard
  order, so every merged artifact is reproducible.

Note on traces: in a sharded run each ``ReleaseEvent`` is per
(epoch, shard) — channel ``epoch-E/shard-S`` — and its
``budget_remaining`` is the *shard's* remaining budget sum, not the
fleet's (each worker only sees its slice).  Fleet-wide budget state
lives on the returned devices, as in the unsharded path.
"""

from __future__ import annotations

import concurrent.futures
import functools
import pickle
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..mechanisms import SensorSpec, make_mechanism
from ..rng.codebook import backend_fingerprint, codebook_cache
from ..rng.urng import shard_seed_sequences
from ..runtime import CounterSink
from ..runtime.events import ReleaseEvent
from ..runtime.pipeline import ReleasePipeline, default_pipeline
from .planner import ExecutionPlan
from .sharding import ShardPlan, plan_shards
from .shm import ShmArena, detach_all
from .worker import (
    CodebookShipment,
    ShardResult,
    ShardShm,
    ShardTask,
    install_shipments,
    run_shard,
)

__all__ = ["run_fleet_sharded"]


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


def measure_ipc_bytes(tasks: Sequence[object], results: Sequence[object]) -> int:
    """Pipe payload of a run: pickled task + result sizes, summed.

    This is exactly what ``ProcessPoolExecutor`` serializes per call, so
    it is the honest apples-to-apples metric for the pickle-vs-shm data
    planes (shm tasks pickle to block names + metadata).  Computed by
    re-pickling outside any timed region.
    """
    return sum(len(pickle.dumps(t)) for t in tasks) + sum(
        len(pickle.dumps(r)) for r in results
    )


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
    shm: Optional[bool] = None,
    measure_ipc: bool = False,
    execution_plan: Optional[ExecutionPlan] = None,
    **mechanism_kwargs,
):
    """Run a fleet epoch matrix sharded across worker processes.

    Parameters beyond :func:`~repro.aggregation.fleet.run_fleet`:

    ``workers``
        Process count.  ``1`` runs the shards inline (no pool) — same
        results, no multiprocessing overhead.
    ``shards``
        Shard count (default :data:`~repro.parallel.sharding.DEFAULT_SHARDS`,
        clamped to ``n_devices``).  Part of the reproducibility key.
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
    ``shm``
        Transport selector: ``True`` forces the zero-copy shared-memory
        data plane, ``False`` forces pickle, ``None`` (default) picks
        shm exactly when a pool is in play (``workers > 1``).  Results
        are bit-identical either way.
    ``measure_ipc``
        Compute the run's pipe payload (see :func:`measure_ipc_bytes`)
        onto the result's ``ipc_bytes``.  Costs an extra serialization
        pass; leave off in timed runs.
    ``execution_plan``
        A :class:`~repro.parallel.planner.ExecutionPlan` (usually from
        :func:`~repro.parallel.planner.plan_execution`).  Overrides
        ``workers`` (and ``shards`` when not explicitly given), and is
        echoed into the trace as an ``execution-plan`` event.
    """
    from ..aggregation.device import Device
    from ..aggregation.fleet import FleetResult
    from ..aggregation.ledger import fleet_device_id
    from ..aggregation.server import AggregationServer

    if execution_plan is not None:
        workers = execution_plan.workers
        if shards is None:
            shards = execution_plan.shards

    true_values = np.asarray(true_values, dtype=float)
    if true_values.ndim != 2:
        raise ConfigurationError("true_values must be (n_epochs, n_devices)")
    if not 0.0 <= dropout < 1.0:
        raise ConfigurationError("dropout must be in [0, 1)")
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    for forbidden in ("source", "rng", "pipeline"):
        if forbidden in mechanism_kwargs:
            raise ConfigurationError(
                f"run_fleet_sharded derives {forbidden!r} per shard; pass "
                "source_seed/pipeline instead of a shared instance"
            )
    # dplint: allow[DPL001] -- dropout/straggler simulation randomness only;
    # release noise comes from the per-shard audited sources.
    rng = rng or np.random.default_rng()
    n_epochs, n_devices = true_values.shape
    plan: ShardPlan = plan_shards(n_devices, shards)
    use_shm = (workers > 1) if shm is None else bool(shm)

    # Coordinator reference mechanism: validates the configuration once,
    # provides the loss bound, the devices' shared mechanism handle, and
    # the codebook table to ship.  It consumes no noise (never released).
    ref_kwargs = dict(mechanism_kwargs)
    if arm != "ideal":
        ref_kwargs.setdefault("input_bits", 14)
    reference = make_mechanism(arm, sensor, epsilon, **ref_kwargs)
    loss = reference.claimed_loss_bound
    shipments = _codebook_shipments(reference)

    # All simulation randomness is drawn here, with the exact call
    # pattern of the unsharded fleet (one `random(n)` per epoch, plus
    # one `integers(n)` on an all-straggler epoch), so a given `rng`
    # seed yields the same reporting sets sharded or not.
    reporting = np.empty((n_epochs, n_devices), dtype=bool)
    for epoch in range(n_epochs):
        mask = rng.random(n_devices) >= dropout
        if not mask.any():
            mask[int(rng.integers(n_devices))] = True  # never a silent epoch
        reporting[epoch] = mask

    seqs = shard_seed_sequences(source_seed, plan.n_shards)
    arena: Optional[ShmArena] = None
    ipc_bytes: Optional[int] = None
    try:
        if use_shm:
            arena = ShmArena()
            # One block per array kind, every shard's slice packed inside.
            truth_refs = arena.pack(
                [true_values[:, start:stop] for start, stop in plan.slices]
            )
            reporting_refs = arena.pack(
                [reporting[:, start:stop] for start, stop in plan.slices]
            )
            # Output layout is fully determined by the reporting masks the
            # coordinator just drew: shard s gets a flat region of
            # reporting[:, start:stop].sum() float64 slots, epochs in
            # order.  Workers recompute the same offsets from the same
            # masks — no size metadata needs to ride back.
            shard_report_counts = [
                reporting[:, start:stop].sum(axis=1).astype(np.int64)
                for start, stop in plan.slices
            ]
            shard_totals = [int(c.sum()) for c in shard_report_counts]
            values_ref = arena.allocate((max(sum(shard_totals), 1),), np.float64)
            shard_bases = np.concatenate([[0], np.cumsum(shard_totals)])
            n_fresh_ref = arena.allocate((n_devices,), np.int64)
            n_cached_ref = arena.allocate((n_devices,), np.int64)
            cached_codes_ref = arena.allocate((n_devices,), np.float64)
            arena.view(cached_codes_ref)[...] = np.nan
            remaining_ref = None
            if device_budget is not None:
                remaining_ref = arena.allocate((n_devices,), np.float64)
                arena.view(remaining_ref)[...] = float(device_budget)
            tasks = [
                ShardTask(
                    shard_index=s,
                    n_shards=plan.n_shards,
                    start=start,
                    arm=arm,
                    sensor=sensor,
                    epsilon=epsilon,
                    seed_seq=seqs[s],
                    truth=None,
                    reporting=None,
                    device_budget=device_budget,
                    mechanism_kwargs=dict(mechanism_kwargs),
                    shm=ShardShm(
                        truth=truth_refs[s],
                        reporting=reporting_refs[s],
                        values_out=values_ref.sub(
                            int(shard_bases[s]), (shard_totals[s],)
                        ),
                        n_fresh=n_fresh_ref.sub(start, (stop - start,)),
                        n_cached=n_cached_ref.sub(start, (stop - start,)),
                        cached_codes=cached_codes_ref.sub(start, (stop - start,)),
                        remaining=(
                            remaining_ref.sub(start, (stop - start,))
                            if remaining_ref is not None
                            else None
                        ),
                    ),
                )
                for s, (start, stop) in enumerate(plan.slices)
            ]
        else:
            tasks = [
                ShardTask(
                    shard_index=s,
                    n_shards=plan.n_shards,
                    start=start,
                    arm=arm,
                    sensor=sensor,
                    epsilon=epsilon,
                    seed_seq=seqs[s],
                    truth=np.ascontiguousarray(true_values[:, start:stop]),
                    reporting=np.ascontiguousarray(reporting[:, start:stop]),
                    device_budget=device_budget,
                    mechanism_kwargs=dict(mechanism_kwargs),
                )
                for s, (start, stop) in enumerate(plan.slices)
            ]

        if workers == 1:
            results: List[ShardResult] = [run_shard(t) for t in tasks]
        else:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, plan.n_shards),
                initializer=install_shipments,
                initargs=(shipments,),
            ) as pool:
                # map() yields in shard order, so a failing shard surfaces
                # deterministically (lowest shard index first).
                results = list(pool.map(run_shard, tasks))

        if measure_ipc:
            ipc_bytes = measure_ipc_bytes(tasks, results)

        # ---- merge, in shard order ----------------------------------
        lam = sensor.d / epsilon if arm != "rr" else None
        server = AggregationServer(
            noise_scale=lam, streaming=streaming, count_thresholds=count_thresholds
        )
        if use_shm:
            values_flat = arena.view(values_ref)
            shard_offsets = [
                np.concatenate([[0], np.cumsum(counts)])
                for counts in shard_report_counts
            ]
        for epoch in range(n_epochs):
            for result in results:
                s = result.shard_index
                if use_shm:
                    lo = int(shard_bases[s] + shard_offsets[s][epoch])
                    hi = int(shard_bases[s] + shard_offsets[s][epoch + 1])
                    values = values_flat[lo:hi]
                else:
                    values = result.values_by_epoch[epoch]
                if values.size == 0:
                    continue
                if streaming:
                    # Zero-copy fold: streaming moments consume the view
                    # immediately, nothing is retained past the call.
                    server.submit_array(epoch, values, loss, donate=use_shm)
                else:
                    start, stop = plan.slices[s]
                    idx = start + np.flatnonzero(reporting[epoch, start:stop])
                    server.submit_array(
                        epoch,
                        values,
                        loss,
                        device_ids=[fleet_device_id(i) for i in idx],
                        donate=use_shm,
                    )
        if streaming:
            # The composition bound, recorded in bulk: every report claims
            # the same per-release loss, and the report count per device is
            # fixed by the coordinator-drawn masks.
            server.record_report_counts(reporting.sum(axis=0), loss)

        target_pipeline = pipeline if pipeline is not None else default_pipeline()
        if execution_plan is not None:
            target_pipeline.adopt([plan_trace_event(execution_plan)])
        for result in results:
            target_pipeline.adopt(result.events)
        counters = functools.reduce(
            CounterSink.merge, (r.counter for r in results), CounterSink()
        )

        devices: List[Device] = []
        if with_devices:
            devices = [
                Device(fleet_device_id(i), reference, budget=device_budget)
                for i in range(n_devices)
            ]
            if use_shm:
                n_fresh_all = arena.view(n_fresh_ref)
                n_cached_all = arena.view(n_cached_ref)
                cached_codes_all = arena.view(cached_codes_ref)
                remaining_all = (
                    arena.view(remaining_ref) if remaining_ref is not None else None
                )
                for i, dev in enumerate(devices):
                    dev.n_fresh = int(n_fresh_all[i])
                    dev.n_cached = int(n_cached_all[i])
                    if remaining_all is not None and dev._accountant is not None:
                        dev._accountant._spent = float(device_budget) - float(
                            remaining_all[i]
                        )
                    if not np.isnan(cached_codes_all[i]):
                        dev._cache.code = float(cached_codes_all[i])
                del n_fresh_all, n_cached_all, cached_codes_all, remaining_all
            else:
                for result in results:
                    start = result.start
                    for j in range(result.n_fresh.shape[0]):
                        dev = devices[start + j]
                        dev.n_fresh = int(result.n_fresh[j])
                        dev.n_cached = int(result.n_cached[j])
                        if (
                            result.remaining is not None
                            and dev._accountant is not None
                        ):
                            dev._accountant._spent = float(device_budget) - float(
                                result.remaining[j]
                            )
                        if not np.isnan(result.cached_codes[j]):
                            dev._cache.code = result.cached_codes[j]

        true_means = [
            float(true_values[epoch, reporting[epoch]].mean())
            for epoch in range(n_epochs)
        ]
        estimated = [server.summarize(e).mean for e in server.epochs]
        if use_shm:
            # Drop the remaining views before close() so every mapping
            # can actually unmap (unlink succeeds regardless).
            values = values_flat = None  # noqa: F841
    finally:
        if arena is not None:
            arena.close()
            # Inline (workers=1) shm runs attach blocks by name in *this*
            # process; drop those cached handles so the mappings free.
            detach_all()
    return FleetResult(
        server=server,
        devices=devices,
        true_means=true_means,
        estimated_means=estimated,
        counters=counters,
        shard_plan=plan,
        ipc_bytes=ipc_bytes,
    )
