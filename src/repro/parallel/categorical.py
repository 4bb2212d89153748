"""Sharded categorical fleet: vector-valued reports, O(d) merges.

The categorical kernel of :func:`repro.parallel.runner.run_sharded`.
Each shard privatizes its device slice through a frequency-oracle arm
(:func:`~repro.mechanisms.make_oracle`) on its own spawned audited
stream, then *aggregates locally*: what the shard writes back is its
per-epoch support-count vector (O(d) integers), never the reports.
Counts fold by integer addition, which is associative, so the merged
counts — and everything estimated from them — are bit-identical for any
worker count; the shard count (not the pool size) is part of the
reproducibility key.

Per-user public randomness survives sharding: OLH's hash is a pure
function of the *global* device index, which each shard derives from
its first device's index and the (non-contiguous, under dropout)
reporting set, so shard layout never changes any user's hash.

The trace substrate rides along unchanged: the coordinator merges shard
counters, adopts the events (renumbered) into the target pipeline, and
``trace_path`` additionally appends them shard-by-shard to a JSONL trace
via :class:`~repro.runtime.JsonlSink` in append mode.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..aggregation.server import AggregationServer
from ..errors import ConfigurationError
from ..mechanisms.oracles import make_oracle
from ..queries.frequency import FrequencyEstimate
from ..rng.urng import SplitStreamSource
from ..runtime import CounterSink, JsonlSink, ReleasePipeline
from .planner import ExecutionPlan
from .runner import run_sharded
from .sharding import ShardPlan
from .shm import ShmArena

__all__ = ["CategoricalKernel", "CategoricalFleetResult", "run_fleet_categorical"]


@dataclasses.dataclass(frozen=True)
class CategoricalKernel:
    """Shard kernel of a categorical fleet: support counts per epoch.

    Output: ``counts``, an ``(n_shards, n_epochs, n_categories)`` matrix;
    each shard fills its own ``(n_epochs, n_categories)`` rows.
    """

    oracle: str
    n_categories: int
    epsilon: float
    kwargs: Dict[str, object]
    forbidden = ("source", "pipeline")

    def reference(self):
        return make_oracle(self.oracle, self.n_categories, self.epsilon, **self.kwargs)

    def allocate(self, arena: ShmArena, plan: ShardPlan, counts: np.ndarray):
        shape = (counts.shape[1], self.n_categories)
        ref = arena.allocate((plan.n_shards,) + shape, np.int64)
        size = shape[0] * shape[1]
        return {"counts": ref}, [
            {"counts": ref.sub(s * size, shape)} for s in range(plan.n_shards)
        ]

    def build(self, seed_seq, pipeline):
        return make_oracle(
            self.oracle,
            self.n_categories,
            self.epsilon,
            source=SplitStreamSource(seed_seq),
            pipeline=pipeline,
            **self.kwargs,
        )

    def step(self, oracle, out, epoch, idx, start, rows, cursor, channel):
        # Global device indices: the per-user public randomness key.
        users = start + idx
        reports = oracle.report(rows, channel=channel, user_offset=users)
        out["counts"][epoch] = oracle.support_counts(reports, user_offset=users)

    def fold(self, server, out, epoch, shard, reports, mask, start, loss):
        # The count fold is additive and consumes the vector immediately
        # — donation is zero-copy.
        server.submit_counts(
            epoch,
            out["counts"][shard, epoch],
            reports.stop - reports.start,
            loss,
            donate=True,
        )

    def finish(self, server, out, reporting, loss):
        # Composition bound, in bulk: report counts per device are fixed
        # by the coordinator-drawn masks.
        server.record_report_counts(reporting.sum(axis=0), loss)


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
    :class:`~repro.runtime.JsonlSink` in append mode.  ``workers``,
    ``shards`` and ``execution_plan`` are as on
    :func:`~repro.parallel.runner.run_sharded`.

    Determinism contract: bit-identical for any ``workers``; the
    ``(shards, source_seed, n_devices)`` triple fixes the streams.
    """
    true_values = np.asarray(true_values)
    if not np.issubdtype(true_values.dtype, np.integer):
        raise ConfigurationError("categorical fleet values must be integers")
    true_values = true_values.astype(np.int64)
    if true_values.size and (
        true_values.min() < 0 or true_values.max() >= n_categories
    ):
        raise ConfigurationError(f"categories must be in 0..{n_categories - 1}")
    kernel = CategoricalKernel(
        oracle=oracle,
        n_categories=int(n_categories),
        epsilon=float(epsilon),
        kwargs=dict(oracle_kwargs),
    )
    server = AggregationServer(streaming=streaming, count_thresholds=count_thresholds)
    run = run_sharded(
        kernel, true_values, server, dropout=dropout, rng=rng,
        source_seed=source_seed, pipeline=pipeline, workers=workers,
        shards=shards, execution_plan=execution_plan,
    )
    if trace_path is not None:
        # One append-mode sink per shard: successive sinks extend the
        # file, which is exactly the JsonlSink(append=True) contract.
        for result in run.results:
            with JsonlSink(trace_path, append=True) as sink:
                for event in result.events:
                    sink.emit(event)

    reporting = run.reporting
    return CategoricalFleetResult(
        server=server,
        oracle=run.reference,
        estimates=[
            server.frequency_estimates(e, run.reference)
            for e in server.categorical_epochs
        ],
        true_frequencies=[
            np.bincount(true_values[epoch, reporting[epoch]], minlength=n_categories)
            / max(int(reporting[epoch].sum()), 1)
            for epoch in range(reporting.shape[0])
        ],
        counters=run.counters,
        shard_plan=run.plan,
    )
