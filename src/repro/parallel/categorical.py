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
counters and adopts the events (renumbered) into the target pipeline,
so a JSONL trace is ``pipeline=ReleasePipeline([JsonlSink(path,
append=True)])``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from ..aggregation.server import AggregationServer
from ..errors import ConfigurationError
from ..mechanisms.oracles import make_oracle
from ..queries.frequency import FrequencyEstimate
from ..rng.urng import SplitStreamSource
from ..runtime import CounterSink, ReleasePipeline
from .planner import ExecutionPlan
from .runner import run_sharded
from .sharding import ShardPlan

__all__ = ["CategoricalKernel", "CategoricalFleetResult", "run_fleet_categorical"]


@dataclasses.dataclass(frozen=True)
class CategoricalKernel:
    """Shard kernel of a categorical fleet: support counts per epoch.

    Rows: each shard's O(d) support counts per epoch, for
    ``submit_counts`` — k-RR and OUE in each epoch's ``step``, OLH in
    ``close_shard``, which decodes every epoch of the shard in one hash
    sweep.  Truth rows: the epoch's category counts of the shard's
    reporting devices' true values, which the coordinator adds up into
    the fleet's true frequencies.

    An OLH shard binds its device range in ``open_shard`` (:meth:`~repro.
    mechanisms.OptimizedLocalHashing.bind_users`): its users are hashed
    once, and every epoch's encode and the decode sweep gather from
    those columns.
    """

    oracle: str
    n_categories: int
    epsilon: float
    kwargs: Dict[str, object]
    forbidden = ("source", "pipeline")
    columns = {}  # no per-device columns
    with_devices = False

    def reference(self):
        return make_oracle(self.oracle, self.n_categories, self.epsilon, **self.kwargs)

    def row(self, width):
        return (self.n_categories,), np.int64

    @property
    def truth_row(self):
        return (self.n_categories,), np.int64

    def build(self, seed_seq, pipeline):
        return make_oracle(
            self.oracle,
            self.n_categories,
            self.epsilon,
            source=SplitStreamSource(seed_seq),
            pipeline=pipeline,
            **self.kwargs,
        )

    def open_shard(self, oracle, devices):
        if self.oracle == "olh":
            oracle.bind_users(devices)

    def step(self, oracle, out, epoch, idx, start, rows, channel):
        out["truth"][epoch] = np.bincount(rows, minlength=self.n_categories)
        # Global device indices: the per-user public randomness key.
        users = start + idx
        reports = oracle.report(rows, channel=channel, user_offset=users)
        if self.oracle == "olh":
            # A user's hash is the same every epoch: close_shard decodes
            # all of the shard's epochs in one candidate sweep.
            return epoch, idx, reports
        # k-RR and OUE decode by a bincount or a column sum, which
        # nothing shares across epochs.
        out["rows"][epoch] = oracle.support_counts(reports, user_offset=users)
        return None

    def close_shard(self, oracle, out, start, steps):
        if self.oracle != "olh" or not steps:
            return
        # One column per device that reported in any epoch; the sentinel
        # g marks the epochs it skipped.
        reported = np.zeros(max(idx[-1] for _, idx, _ in steps) + 1, dtype=bool)
        for _, idx, _ in steps:
            reported[idx] = True
        users = np.flatnonzero(reported)
        column = np.cumsum(reported) - 1
        buckets = np.full(
            (len(steps), users.size), oracle.g, dtype=np.min_scalar_type(oracle.g)
        )
        for row, (_, idx, reports) in zip(buckets, steps):
            # Checked before the narrowing copy: a report of g, or one
            # that wraps onto a bucket, must not pass as a valid one.
            if not np.issubdtype(reports.dtype, np.integer) or (
                reports.min() < 0 or reports.max() >= oracle.g
            ):
                raise ConfigurationError(f"OLH reports must be in 0..{oracle.g - 1}")
            row[column[idx]] = reports
        epochs = [epoch for epoch, _, _ in steps]
        out["rows"][epochs] = oracle.support_counts_epochs(
            buckets, user_offset=start + users
        )

    def submit(self, server, epoch, row, n, loss, start, mask):
        # The count fold is additive and consumes the vector immediately
        # — donation is zero-copy.
        server.submit_counts(epoch, row, n, loss, donate=True)


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
    execution_plan: Optional[ExecutionPlan] = None,
    **oracle_kwargs,
) -> CategoricalFleetResult:
    """Run a categorical fleet epoch matrix sharded across processes.

    ``true_values`` is an ``(n_epochs, n_devices)`` integer category
    matrix; each reporting device sends one privatized report per epoch
    through the chosen frequency-oracle arm.  The server receives only
    per-shard support counts (``submit_counts``) on a streaming server of
    its own.  ``workers``, ``shards`` and ``execution_plan`` are as on
    :func:`~repro.parallel.runner.run_sharded`.

    Determinism contract: bit-identical for any ``workers``; the
    ``(shards, source_seed, n_devices)`` triple fixes the streams.
    """
    true_values = np.asarray(true_values)
    if not np.issubdtype(true_values.dtype, np.integer):
        raise ConfigurationError("categorical fleet values must be integers")
    if true_values.size and (
        true_values.min() < 0 or true_values.max() >= n_categories
    ):
        raise ConfigurationError(f"categories must be in 0..{n_categories - 1}")
    # In range, so the narrowest unsigned type holds every category: the
    # truth block the shards read is 8x smaller than int64 at d = 256.
    true_values = true_values.astype(np.min_scalar_type(n_categories - 1), copy=False)
    kernel = CategoricalKernel(
        oracle=oracle,
        n_categories=int(n_categories),
        epsilon=float(epsilon),
        kwargs=dict(oracle_kwargs),
    )
    server = AggregationServer(streaming=True)
    run = run_sharded(
        kernel, true_values, server, dropout=dropout, rng=rng,
        source_seed=source_seed, pipeline=pipeline, workers=workers,
        shards=shards, execution_plan=execution_plan,
    )
    return CategoricalFleetResult(
        server=server,
        oracle=run.reference,
        estimates=[
            server.frequency_estimates(e, run.reference)
            for e in server.categorical_epochs
        ],
        true_frequencies=list(run.truth),
        counters=run.counters,
        shard_plan=run.plan,
    )
