"""Multi-core sharded fleet execution.

Splits a fleet epoch across worker processes without giving up the
repo's headline invariant — determinism.  The device axis is cut into a
fixed number of shards (:mod:`repro.parallel.sharding`), each shard owns
an independent audited noise stream spawned from the fleet seed via
``numpy.random.SeedSequence.spawn`` (:mod:`repro.rng.urng`), and each
worker privatizes its slice through a private
:class:`~repro.runtime.ReleasePipeline` (:mod:`repro.parallel.worker`).
One coordinator, :func:`~repro.parallel.runner.run_sharded`, serves
both fleets: it merges shard outputs in shard order, so the result is
**bit-identical** for any worker count — the shard plan, not the pool
size, fixes the noise streams.  What differs between a numeric and a
categorical fleet lives in a small picklable shard kernel
(:class:`NumericKernel`, :class:`CategoricalKernel`).

Two layers ride on top:

* the data plane (:mod:`repro.parallel.shm`), the same for every run,
  inline or pooled: shards read their truth and mask columns in place
  (pool workers fork after the coordinator holds them), write their
  outputs into named ``multiprocessing.shared_memory`` blocks, and only
  tokens, block names and slice metadata cross the pool pipe; and
* the adaptive planner (:mod:`repro.parallel.planner`) —
  :func:`~repro.parallel.planner.plan_execution` picks serial-vs-pool
  and the worker count from host probes while the shard count (the
  reproducibility key) stays caller-fixed.
"""

from .planner import ExecutionPlan, calibrate_throughput, plan_execution
from .sharding import DEFAULT_SHARDS, ShardPlan, clamp_workers, plan_shards
from .shm import HeldRef, ShmArena, ShmArrayRef, attach_array
from .worker import ShardResult, ShardTask, run_shard
from .runner import (
    NumericKernel,
    plan_trace_event,
    run_fleet_sharded,
    run_sharded,
)
from .categorical import (
    CategoricalFleetResult,
    CategoricalKernel,
    run_fleet_categorical,
)

__all__ = [
    "DEFAULT_SHARDS",
    "ShardPlan",
    "plan_shards",
    "clamp_workers",
    "ExecutionPlan",
    "plan_execution",
    "calibrate_throughput",
    "HeldRef",
    "ShmArena",
    "ShmArrayRef",
    "attach_array",
    "ShardTask",
    "ShardResult",
    "run_shard",
    "run_sharded",
    "NumericKernel",
    "run_fleet_sharded",
    "plan_trace_event",
    "CategoricalKernel",
    "CategoricalFleetResult",
    "run_fleet_categorical",
]
