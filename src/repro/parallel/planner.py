"""Adaptive execution planning: choose *scheduling*, never *streams*.

:func:`plan_execution` sits above :func:`~repro.parallel.sharding.plan_shards`
and decides how a fleet run should be scheduled — inline on one core, or
across a process pool, and with how many workers.  It probes the host
(``os.cpu_count()``) and a cached micro-benchmark calibration of this
machine's vectorized-release throughput to place the serial-vs-pool
cutover where the pool actually pays for its startup cost.

The reproducibility contract is strict and worth spelling out:

* The **shard count** — and with it the ``SeedSequence.spawn`` layout,
  i.e. every noise stream — is part of the run's reproducibility key.
  It comes from the caller (or :data:`~repro.parallel.sharding.DEFAULT_SHARDS`)
  and this module passes it through *untouched*.  No host probe ever
  flows into it.
* The **worker count** and the serial/pool decision are free: they may
  differ per host, per load, per calibration — and the run is
  bit-identical regardless, because workers only schedule shards whose
  streams are already fixed.  (dplint's DPL007 enforces the boundary:
  ``os.cpu_count``/wall-clock taint must never reach seed material or
  ``shards=``.)

So two machines disagree about *how fast* a run executes, never about
*what* it releases.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Optional

import numpy as np

from ..errors import ConfigurationError
from .sharding import ShardPlan, clamp_workers, plan_shards

__all__ = ["ExecutionPlan", "plan_execution", "calibrate_throughput"]

#: Fixed cost a process pool must amortize before it can win: worker
#: fork and pipe setup.  Deliberately a constant, not a measurement — it
#: only places the cutover, and a constant keeps the planner's behaviour
#: explainable.
_POOL_OVERHEAD_S = 0.35

#: The pool must promise at least this serial runtime before we pay the
#: overhead (i.e. cutover where even a perfect 2× split breaks even).
_MIN_SERIAL_FOR_POOL_S = 4.0 * _POOL_OVERHEAD_S

#: Cached calibration: vectorized release-path throughput, elements/s.
_calibrated: Optional[float] = None


def calibrate_throughput(force: bool = False) -> float:
    """Measure (once, cached) this host's vectorized release throughput.

    The probe mirrors the per-element shape of the codebook release
    path — a table gather, a signed add, an in-place clip — over a
    buffer big enough to leave the cache hierarchy honest.  The result
    feeds *only* the serial-vs-pool cutover; it never touches seed
    material (see the module docstring's reproducibility contract).
    """
    global _calibrated
    if _calibrated is not None and not force:
        return _calibrated
    n = 1 << 18
    table = np.arange(1 << 12, dtype=np.int32)
    m = np.arange(n, dtype=np.int64) % table.size
    codes = np.arange(n, dtype=np.int64)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        k = table[m].astype(np.int64)
        k += codes
        np.clip(k, -2048, 2048, out=k)
        best = min(best, time.perf_counter() - t0)
    _calibrated = n / max(best, 1e-9)
    return _calibrated


@dataclasses.dataclass(frozen=True)
class ExecutionPlan:
    """A scheduling decision over a fixed :class:`ShardPlan`.

    ``shards`` is reproducibility key material (caller-fixed); ``workers``
    and ``mode`` are scheduling only.
    """

    shards: int
    workers: int
    mode: str
    """``"serial"`` (inline, no pool) or ``"pool"``."""
    reason: str
    """Human-readable why — echoed into the run's trace metadata."""
    estimated_serial_s: Optional[float] = None

    def describe(self) -> str:
        """Compact plan label, e.g. ``pool:2/8shards`` or ``serial/8shards``."""
        if self.mode == "serial":
            return f"serial/{self.shards}shards"
        return f"pool:{self.workers}/{self.shards}shards"


def plan_execution(
    n_devices: int,
    n_epochs: int,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
) -> ExecutionPlan:
    """Choose serial-vs-pool and a worker count for one fleet run.

    ``shards`` (reproducibility key) passes straight through to
    :func:`plan_shards`.  ``workers`` forces the pool size (validated and
    clamped via :func:`~repro.parallel.sharding.clamp_workers`); ``None``
    lets the planner probe ``os.cpu_count()`` and the cached calibration:
    single-core hosts and runs too small to amortize pool startup stay
    serial, everything else gets ``min(cores, shards)`` workers.
    """
    if n_epochs < 1:
        raise ConfigurationError("n_epochs must be >= 1")
    shard_plan: ShardPlan = plan_shards(n_devices, shards)
    n_shards = shard_plan.n_shards

    if workers is not None:
        vetted = clamp_workers(workers)
        if vetted == 1:
            return ExecutionPlan(
                shards=n_shards,
                workers=1,
                mode="serial",
                reason="caller pinned workers=1",
            )
        return ExecutionPlan(
            shards=n_shards,
            workers=min(vetted, n_shards),
            mode="pool",
            reason=f"caller pinned workers={workers}",
        )

    cores = os.cpu_count() or 1
    if cores < 2:
        return ExecutionPlan(
            shards=n_shards,
            workers=1,
            mode="serial",
            reason="single-core host: a pool only adds IPC overhead",
        )
    throughput = calibrate_throughput()
    # ~10 release-shaped passes per element per epoch end to end (draw,
    # sign, add, guard, decode, fold) — a deliberately rough constant;
    # the cutover only needs the right order of magnitude.
    est_serial = 10.0 * float(n_devices) * float(n_epochs) / throughput
    if est_serial < _MIN_SERIAL_FOR_POOL_S:
        return ExecutionPlan(
            shards=n_shards,
            workers=1,
            mode="serial",
            reason=(
                f"run too small to amortize pool startup "
                f"(~{est_serial:.2f}s serial < {_MIN_SERIAL_FOR_POOL_S:.2f}s cutover)"
            ),
            estimated_serial_s=est_serial,
        )
    return ExecutionPlan(
        shards=n_shards,
        workers=min(cores, n_shards),
        mode="pool",
        reason=(
            f"~{est_serial:.2f}s estimated serial on {cores} cores "
            f"clears the {_MIN_SERIAL_FOR_POOL_S:.2f}s pool cutover"
        ),
        estimated_serial_s=est_serial,
    )
