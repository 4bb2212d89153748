"""Fleet simulation: many devices, one aggregator, several epochs.

Convenience harness tying the aggregation substrate together: build N
devices sharing one mechanism, stream per-epoch true values through them
(with optional straggling), and collect the server's estimates next to
the ground truth.  Two execution paths, one set of decisions — both
draw their masks with :func:`~repro.parallel.runner.draw_reporting` and
build their arm with :class:`~repro.parallel.runner.NumericKernel`:

* ``batched=True`` (default) — the shard coordinator
  (:func:`repro.parallel.run_fleet_sharded`), on one shard unless
  ``workers``/``shards``/``streaming`` ask for more: one pipeline
  release per (epoch, shard), budgets charged vectorized.
* ``batched=False`` — the per-device scalar loop through
  :meth:`Device.report <repro.aggregation.device.Device.report>` (one
  event per device per epoch), kept as the reference semantics.

With a ``source_seed`` the two are **bit-identical** for single-draw
guards (thresholding / baseline / rr): a split-stream PCG64 fills a
size-n batch element-by-element exactly like n sequential size-1 draws.
Resampling's redraw interleaving differs between the paths, so its
outputs agree only in distribution.
``benchmarks/bench_kernel_codebook.py::bench_kernel_fleet_paths`` asserts
the equality and the >= 5x median batched speedup on a budgeted fleet.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..mechanisms import SensorSpec
from ..rng.urng import shard_seed_sequences
from ..runtime import ReleasePipeline
from .device import Device
from .ledger import fleet_device_id
from .server import AggregationServer

__all__ = ["FleetResult", "run_fleet"]


@dataclasses.dataclass(frozen=True)
class FleetResult:
    """Outcome of a fleet simulation."""

    server: AggregationServer
    devices: List[Device]
    #: Per-epoch true means (over the devices that reported).
    true_means: List[float]
    #: Per-epoch estimated means.
    estimated_means: List[float]
    #: Coordinator runs only (not the scalar reference loop): per-shard
    #: trace counters merged in shard order.
    counters: Optional[object] = None
    #: Coordinator runs only: the shard plan the run executed under.
    shard_plan: Optional[object] = None

    @property
    def mean_abs_error(self) -> float:
        """MAE of the per-epoch mean estimates."""
        t = np.asarray(self.true_means)
        e = np.asarray(self.estimated_means)
        return float(np.abs(t - e).mean())


def run_fleet(
    true_values: np.ndarray,
    sensor: SensorSpec,
    epsilon: float,
    arm: str = "thresholding",
    device_budget: Optional[float] = None,
    dropout: float = 0.0,
    rng: Optional[np.random.Generator] = None,
    batched: bool = True,
    source_seed: Optional[int] = None,
    pipeline: Optional[ReleasePipeline] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    streaming: bool = False,
    **mechanism_kwargs,
) -> FleetResult:
    """Simulate a fleet over a (n_epochs, n_devices) true-value matrix.

    ``dropout`` is the per-epoch probability a device straggles (sends
    nothing); the server aggregates whoever reported.  ``source_seed``
    seeds a :class:`~repro.rng.urng.SplitStreamSource` (or the ideal
    arm's generator) so the two execution paths can be compared on the
    same noise stream; ``pipeline`` isolates the emitted events.  A
    shared ``source`` in ``mechanism_kwargs`` is refused.

    ``workers``, ``shards`` or ``streaming`` run the batched path on a
    multi-shard plan (:func:`repro.parallel.run_fleet_sharded`): each
    shard privatizes on its own ``SeedSequence``-spawned audited stream
    and results merge in shard order — bit-identical for any worker
    count, but the shard count is part of the reproducibility key.  The
    batched path's devices hold the coordinator's reference arm.
    """
    from ..parallel.runner import (
        NumericKernel, draw_reporting, reject_shared_sources, run_fleet_sharded,
    )

    sharding = workers is not None or shards is not None or streaming
    if batched:
        return run_fleet_sharded(
            true_values, sensor, epsilon, arm=arm, device_budget=device_budget,
            dropout=dropout, rng=rng, source_seed=source_seed, pipeline=pipeline,
            workers=1 if workers is None else workers,
            shards=shards if sharding else 1, streaming=streaming,
            **mechanism_kwargs,
        )
    if sharding:
        raise ConfigurationError(
            "sharded execution batches each shard-epoch; batched=False "
            "(the scalar reference loop) cannot be sharded"
        )
    true_values = np.asarray(true_values, dtype=float)
    kernel = NumericKernel(arm, sensor, epsilon, device_budget, dict(mechanism_kwargs))
    reject_shared_sources(kernel)
    reporting = draw_reporting(true_values, dropout, rng)
    # One shared mechanism on the one-shard plan's root stream: all
    # devices draw, in device order, from the same audited noise stream.
    (root,) = shard_seed_sequences(source_seed, 1)
    mechanism = kernel.build(root, pipeline)
    devices = [
        Device(fleet_device_id(i), mechanism, budget=device_budget)
        for i in range(true_values.shape[1])
    ]
    server = AggregationServer(noise_scale=kernel.noise_scale)
    for epoch, mask in enumerate(reporting):
        for i in np.flatnonzero(mask):
            server.submit(devices[i].report(float(true_values[epoch, i]), epoch))
    return FleetResult(
        server=server,
        devices=devices,
        true_means=[
            float(true_values[epoch, mask].mean())
            for epoch, mask in enumerate(reporting)
        ],
        estimated_means=[server.summarize(e).mean for e in server.epochs],
    )
