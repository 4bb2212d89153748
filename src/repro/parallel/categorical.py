"""Sharded categorical fleet: vector-valued reports, O(d) merges.

The categorical counterpart of :mod:`repro.parallel.runner`.  Each shard
privatizes its device slice through a frequency-oracle arm
(:func:`~repro.mechanisms.make_oracle`) on its own spawned audited
stream, then *aggregates locally*: what crosses the process boundary is
the shard's per-epoch support-count vector (O(d) integers), never the
reports.  Counts fold by integer addition, which is associative, so the
merged counts — and everything estimated from them — are bit-identical
for any worker count; as in the numeric runner, the shard count (not the
pool size) is part of the reproducibility key.

Per-user public randomness survives sharding: OLH's hash is a pure
function of the *global* device index, which the coordinator threads to
every shard as explicit index arrays (dropout makes the reporting set
non-contiguous), so shard layout never changes any user's hash.

The trace substrate rides along unchanged: every shard runs a private
:class:`~repro.runtime.ReleasePipeline` with a
:class:`~repro.runtime.CounterSink` and ring buffer; the coordinator
merges counters via :meth:`~repro.runtime.CounterSink.merge`, adopts the
events (renumbered) into the target pipeline, and optionally appends
them shard-by-shard to a JSONL trace via
:class:`~repro.runtime.JsonlSink` in append mode.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..mechanisms.oracles import make_oracle
from ..queries.frequency import FrequencyEstimate
from ..rng.urng import SplitStreamSource, shard_seed_sequences
from ..runtime import CounterSink, JsonlSink, ReleasePipeline, RingBufferSink
from ..runtime.events import ReleaseEvent
from ..runtime.pipeline import default_pipeline
from .planner import ExecutionPlan
from .sharding import ShardPlan, plan_shards
from .shm import ShmArena, ShmArrayRef, detach_all

__all__ = [
    "CategoricalFleetResult",
    "CategoricalShardShm",
    "CategoricalShardTask",
    "CategoricalShardResult",
    "run_categorical_shard",
    "run_fleet_categorical",
]


@dataclasses.dataclass(frozen=True)
class CategoricalShardShm:
    """Shared-memory refs replacing one categorical shard's payload.

    ``counts_out``/``n_out`` are the shard's rows of the coordinator's
    ``(n_epochs, n_categories)`` count matrix and per-epoch report
    tally — the worker writes them in place of shipping count vectors
    back through the pipe.
    """

    truth: ShmArrayRef
    reporting: ShmArrayRef
    counts_out: ShmArrayRef
    n_out: ShmArrayRef


@dataclasses.dataclass
class CategoricalShardTask:
    """Everything one categorical shard needs, picklable."""

    shard_index: int
    n_shards: int
    start: int
    oracle: str
    n_categories: int
    epsilon: float
    seed_seq: np.random.SeedSequence
    truth: Optional[np.ndarray]
    """True categories, shape ``(n_epochs, shard_devices)`` int64
    (``None`` ⇢ shm)."""
    reporting: Optional[np.ndarray]
    """Coordinator-drawn reporting masks, same shape, bool (``None`` ⇢ shm)."""
    oracle_kwargs: Dict[str, object]
    shm: Optional[CategoricalShardShm] = None
    """Zero-copy transport refs; replaces the array payload when set."""


@dataclasses.dataclass
class CategoricalShardResult:
    """One shard's aggregated output: counts, never reports.

    On the shm transport ``counts_by_epoch``/``n_by_epoch`` are empty —
    the counts already sit in coordinator-owned buffers.
    """

    shard_index: int
    start: int
    claimed_loss: float
    counts_by_epoch: List[np.ndarray]
    """Per-epoch support counts (all-zeros where no device reported)."""
    n_by_epoch: List[int]
    events: List[ReleaseEvent]
    counter: CounterSink


def _shard_channel(epoch: int, shard_index: int, n_shards: int) -> str:
    if n_shards == 1:
        return f"epoch-{epoch}"
    return f"epoch-{epoch}/shard-{shard_index}"


def run_categorical_shard(task: CategoricalShardTask) -> CategoricalShardResult:
    """Privatize and locally aggregate one shard's slice across epochs.

    One pipeline release per (epoch, shard); the reports are folded into
    the shard's support-count vector immediately and discarded — the
    streaming discipline starts at the worker.

    Transport never touches privatization: with shm refs the worker
    attaches its input slices by name and writes its count rows straight
    into the coordinator's matrix, consuming the identical audited
    stream — bit-identical to the pickle transport by construction.
    """
    use_shm = task.shm is not None
    if use_shm:
        truth = task.shm.truth.attach()
        reporting = task.shm.reporting.attach()
        counts_out = task.shm.counts_out.attach()
        n_out = task.shm.n_out.attach()
    else:
        truth = task.truth
        reporting = task.reporting
    n_epochs, _ = truth.shape
    counter = CounterSink()
    ring = RingBufferSink(capacity=max(n_epochs + 4, 16))
    arm = make_oracle(
        task.oracle,
        task.n_categories,
        task.epsilon,
        source=SplitStreamSource(task.seed_seq),
        pipeline=ReleasePipeline(sinks=[counter, ring]),
        **task.oracle_kwargs,
    )
    loss = arm.claimed_loss_bound
    counts_by_epoch: List[np.ndarray] = []
    n_by_epoch: List[int] = []
    zeros = np.zeros(task.n_categories, dtype=np.int64)

    for epoch in range(n_epochs):
        idx = np.flatnonzero(reporting[epoch])
        if idx.size == 0:
            if not use_shm:
                counts_by_epoch.append(zeros.copy())
                n_by_epoch.append(0)
            continue
        # Global device indices: the per-user public randomness key.
        users = task.start + idx
        reports = arm.report(
            truth[epoch, idx],
            channel=_shard_channel(epoch, task.shard_index, task.n_shards),
            user_offset=users,
        )
        counts = np.asarray(
            arm.support_counts(reports, user_offset=users), dtype=np.int64
        )
        if use_shm:
            counts_out[epoch] = counts
            n_out[epoch] = idx.size
        else:
            counts_by_epoch.append(counts)
            n_by_epoch.append(int(idx.size))

    return CategoricalShardResult(
        shard_index=task.shard_index,
        start=task.start,
        claimed_loss=loss,
        counts_by_epoch=counts_by_epoch,
        n_by_epoch=n_by_epoch,
        events=ring.events,
        counter=counter,
    )


@dataclasses.dataclass(frozen=True)
class CategoricalFleetResult:
    """Outcome of a categorical fleet simulation."""

    server: object
    #: The coordinator's reference oracle (public channel metadata only —
    #: it never consumed noise).
    oracle: object
    #: Per-epoch unbiased frequency estimates.
    estimates: List[FrequencyEstimate]
    #: Per-epoch true frequencies (over the devices that reported).
    true_frequencies: List[np.ndarray]
    counters: CounterSink
    shard_plan: ShardPlan
    #: Measured pipe payload (pickled tasks + results) when the run was
    #: invoked with ``measure_ipc=True``; ``None`` otherwise.
    ipc_bytes: Optional[int] = None

    @property
    def mean_abs_error(self) -> float:
        """MAE of the per-epoch frequency vectors, averaged over epochs."""
        errs = [
            float(np.abs(est.frequencies - f).mean())
            for est, f in zip(self.estimates, self.true_frequencies)
        ]
        return float(np.mean(errs))


def run_fleet_categorical(
    true_values: np.ndarray,
    n_categories: int,
    epsilon: float,
    oracle: str = "oue",
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    source_seed=None,
    pipeline: Optional[ReleasePipeline] = None,
    workers: int = 1,
    shards: Optional[int] = None,
    streaming: bool = True,
    count_thresholds: Sequence[float] = (),
    trace_path=None,
    shm: Optional[bool] = None,
    measure_ipc: bool = False,
    execution_plan: Optional[ExecutionPlan] = None,
    **oracle_kwargs,
) -> CategoricalFleetResult:
    """Run a categorical fleet epoch matrix sharded across processes.

    ``true_values`` is an ``(n_epochs, n_devices)`` integer category
    matrix; each reporting device sends one privatized report per epoch
    through the chosen frequency-oracle arm.  The server receives only
    per-shard support counts (``submit_counts``) — the categorical path
    is streaming-native, ``streaming`` only controls the server's mode
    flag for any numeric traffic sharing it.  ``trace_path`` appends
    every shard's release events to one JSONL trace, shard by shard, via
    :class:`~repro.runtime.JsonlSink` in append mode.

    ``shm``/``measure_ipc``/``execution_plan`` behave exactly as on
    :func:`~repro.parallel.runner.run_fleet_sharded`: transport selector
    (``None`` → shm iff pooled), pipe-payload measurement, and an
    adaptive plan that overrides ``workers`` (plus ``shards`` when not
    explicitly given) and is echoed into the trace.

    Determinism contract: bit-identical for any ``workers`` and either
    transport; the ``(shards, source_seed, n_devices)`` triple fixes the
    streams.
    """
    from ..aggregation.server import AggregationServer

    if execution_plan is not None:
        workers = execution_plan.workers
        if shards is None:
            shards = execution_plan.shards

    true_values = np.asarray(true_values)
    if true_values.ndim != 2:
        raise ConfigurationError("true_values must be (n_epochs, n_devices)")
    if not np.issubdtype(true_values.dtype, np.integer):
        raise ConfigurationError("categorical fleet values must be integers")
    true_values = true_values.astype(np.int64)
    if true_values.min() < 0 or true_values.max() >= n_categories:
        raise ConfigurationError(f"categories must be in 0..{n_categories - 1}")
    if not 0.0 <= dropout < 1.0:
        raise ConfigurationError("dropout must be in [0, 1)")
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    for forbidden in ("source", "pipeline"):
        if forbidden in oracle_kwargs:
            raise ConfigurationError(
                f"run_fleet_categorical derives {forbidden!r} per shard; pass "
                "source_seed/pipeline instead of a shared instance"
            )
    # dplint: allow[DPL001] -- dropout/straggler simulation randomness only;
    # release noise comes from the per-shard audited sources.
    rng = rng or np.random.default_rng()
    n_epochs, n_devices = true_values.shape
    plan: ShardPlan = plan_shards(n_devices, shards)

    # Reference oracle: validates the configuration once and supplies the
    # public channel metadata for estimation.  It consumes no noise.
    reference = make_oracle(oracle, n_categories, epsilon, **oracle_kwargs)
    loss = reference.claimed_loss_bound

    # Coordinator-owned simulation randomness, same call pattern as the
    # numeric fleet, so a given rng seed picks the same reporting sets.
    reporting = np.empty((n_epochs, n_devices), dtype=bool)
    for epoch in range(n_epochs):
        mask = rng.random(n_devices) >= dropout
        if not mask.any():
            mask[int(rng.integers(n_devices))] = True  # never a silent epoch
        reporting[epoch] = mask

    seqs = shard_seed_sequences(source_seed, plan.n_shards)
    use_shm = (workers > 1) if shm is None else bool(shm)
    arena: Optional[ShmArena] = None
    ipc_bytes: Optional[int] = None
    try:
        if use_shm:
            arena = ShmArena()
            truth_refs = arena.pack(
                [true_values[:, start:stop] for start, stop in plan.slices]
            )
            reporting_refs = arena.pack(
                [reporting[:, start:stop] for start, stop in plan.slices]
            )
            # Per-shard output rows: counts (n_epochs × d) and the report
            # tally (n_epochs), packed one region per shard in one block.
            counts_ref = arena.allocate(
                (plan.n_shards, n_epochs, int(n_categories)), np.int64
            )
            n_ref = arena.allocate((plan.n_shards, n_epochs), np.int64)
            tasks = [
                CategoricalShardTask(
                    shard_index=s,
                    n_shards=plan.n_shards,
                    start=start,
                    oracle=oracle,
                    n_categories=int(n_categories),
                    epsilon=float(epsilon),
                    seed_seq=seqs[s],
                    truth=None,
                    reporting=None,
                    oracle_kwargs=dict(oracle_kwargs),
                    shm=CategoricalShardShm(
                        truth=truth_refs[s],
                        reporting=reporting_refs[s],
                        counts_out=counts_ref.sub(
                            s * n_epochs * int(n_categories),
                            (n_epochs, int(n_categories)),
                        ),
                        n_out=n_ref.sub(s * n_epochs, (n_epochs,)),
                    ),
                )
                for s, (start, stop) in enumerate(plan.slices)
            ]
        else:
            tasks = [
                CategoricalShardTask(
                    shard_index=s,
                    n_shards=plan.n_shards,
                    start=start,
                    oracle=oracle,
                    n_categories=int(n_categories),
                    epsilon=float(epsilon),
                    seed_seq=seqs[s],
                    truth=np.ascontiguousarray(true_values[:, start:stop]),
                    reporting=np.ascontiguousarray(reporting[:, start:stop]),
                    oracle_kwargs=dict(oracle_kwargs),
                )
                for s, (start, stop) in enumerate(plan.slices)
            ]

        if workers == 1:
            results: List[CategoricalShardResult] = [
                run_categorical_shard(t) for t in tasks
            ]
        else:
            with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers, plan.n_shards)
            ) as pool:
                results = list(pool.map(run_categorical_shard, tasks))

        if measure_ipc:
            from .runner import measure_ipc_bytes

            ipc_bytes = measure_ipc_bytes(tasks, results)

        # ---- merge, in shard order --------------------------------------
        server = AggregationServer(
            streaming=streaming, count_thresholds=count_thresholds
        )
        if use_shm:
            counts_all = arena.view(counts_ref)
            n_all = arena.view(n_ref)
        for epoch in range(n_epochs):
            for result in results:
                s = result.shard_index
                if use_shm:
                    n = int(n_all[s, epoch])
                    counts = counts_all[s, epoch]
                else:
                    n = result.n_by_epoch[epoch]
                    counts = result.counts_by_epoch[epoch]
                if n == 0:
                    continue
                # The count fold is additive and consumes the vector
                # immediately — donation is zero-copy.
                server.submit_counts(epoch, counts, n, loss, donate=use_shm)
        # Composition bound, in bulk: report counts per device are fixed by
        # the coordinator-drawn masks.
        server.record_report_counts(reporting.sum(axis=0), loss)

        target_pipeline = pipeline if pipeline is not None else default_pipeline()
        if execution_plan is not None:
            from .runner import plan_trace_event

            target_pipeline.adopt([plan_trace_event(execution_plan)])
        for result in results:
            target_pipeline.adopt(result.events)
        if trace_path is not None:
            # One append-mode sink per shard: successive sinks extend the
            # file, which is exactly the JsonlSink(append=True) contract.
            for result in results:
                with JsonlSink(trace_path, append=True) as sink:
                    for event in result.events:
                        # dplint: allow[DPL006] -- ReleaseEvents are already
                        # privatized pipeline outputs; the taint is via the
                        # shard-result container, which also carries the
                        # simulation ground truth used for utility scoring.
                        sink.emit(event)
        counters = functools.reduce(
            CounterSink.merge, (r.counter for r in results), CounterSink()
        )

        estimates = [
            server.frequency_estimates(e, reference)
            for e in server.categorical_epochs
        ]
        if use_shm:
            counts = counts_all = n_all = None  # noqa: F841
    finally:
        if arena is not None:
            arena.close()
            detach_all()
    true_frequencies = [
        np.bincount(true_values[epoch, reporting[epoch]], minlength=n_categories)
        / max(int(reporting[epoch].sum()), 1)
        for epoch in range(n_epochs)
    ]
    return CategoricalFleetResult(
        server=server,
        oracle=reference,
        estimates=estimates,
        true_frequencies=true_frequencies,
        counters=counters,
        shard_plan=plan,
        ipc_bytes=ipc_bytes,
    )
