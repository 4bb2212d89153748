"""Fleet simulation: many devices, one aggregator, several epochs.

Convenience harness tying the aggregation substrate together: build N
devices sharing one mechanism, stream per-epoch true values through them
(with optional straggling), and collect the server's estimates next to
the ground truth.

Two execution paths produce **bit-identical** reports for single-draw
guards (thresholding / baseline / rr) when the mechanism consumes a
:class:`~repro.rng.urng.SplitStreamSource` (``source_seed=...``):

* ``batched=True`` (default) — each epoch is ONE pipeline release: the
  reporting devices' readings privatize as a single array operation and
  per-device budgets charge vectorized via
  :class:`~repro.runtime.ArrayCharge`.  One ``ReleaseEvent`` per epoch.
* ``batched=False`` — the legacy per-device scalar loop through
  :meth:`Device.report <repro.aggregation.device.Device.report>`
  (one event per device per epoch), kept as the reference semantics.

Bit-identity holds because a split-stream PCG64 fills a size-n batch
element-by-element exactly like n sequential size-1 draws; resampling's
redraw interleaving differs between the paths, so its outputs agree only
in distribution.  ``benchmarks/bench_system_fleet.py`` asserts the
equality and the >= 5x batched speedup at 10k devices.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

import numpy as np

from ..errors import BudgetExhaustedError, ConfigurationError
from ..mechanisms import SensorSpec, make_mechanism
from ..rng.urng import SplitStreamSource, audited_generator
from ..runtime import ArrayCharge, ReleasePipeline
from .device import Device
from .ledger import fleet_device_id
from .protocol import Report
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
    #: Sharded runs only: per-shard trace counters merged in shard order.
    counters: Optional[object] = None
    #: Sharded runs only: the shard plan the run executed under.
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
    same noise stream; ``pipeline`` isolates the emitted events.

    Passing ``workers``, ``shards`` or ``streaming`` delegates to the
    multi-core sharded runner
    (:func:`repro.parallel.run_fleet_sharded`): the device axis splits
    into a fixed shard plan, each shard privatizes on its own
    ``SeedSequence``-spawned audited stream, and results merge in shard
    order — bit-identical for any worker count.  Note that a sharded
    run's noise streams differ from the unsharded ones unless
    ``shards=1`` (the shard plan is part of the reproducibility key).
    """
    if workers is not None or shards is not None or streaming:
        if not batched:
            raise ConfigurationError(
                "sharded execution batches each shard-epoch; batched=False "
                "(the scalar reference loop) cannot be sharded"
            )
        from ..parallel.runner import run_fleet_sharded

        return run_fleet_sharded(
            true_values,
            sensor,
            epsilon,
            arm=arm,
            device_budget=device_budget,
            dropout=dropout,
            rng=rng,
            source_seed=source_seed,
            pipeline=pipeline,
            workers=workers if workers is not None else 1,
            shards=shards,
            streaming=streaming,
            **mechanism_kwargs,
        )
    true_values = np.asarray(true_values, dtype=float)
    if true_values.ndim != 2:
        raise ConfigurationError("true_values must be (n_epochs, n_devices)")
    if not 0.0 <= dropout < 1.0:
        raise ConfigurationError("dropout must be in [0, 1)")
    # dplint: allow[DPL001] -- dropout/straggler simulation randomness only;
    # release noise comes from the shared mechanism's audited source.
    rng = rng or np.random.default_rng()
    n_epochs, n_devices = true_values.shape
    if arm != "ideal":
        mechanism_kwargs.setdefault("input_bits", 14)
        if source_seed is not None:
            mechanism_kwargs.setdefault("source", SplitStreamSource(source_seed))
    elif source_seed is not None:
        mechanism_kwargs.setdefault("rng", audited_generator(source_seed))
    if pipeline is not None:
        mechanism_kwargs.setdefault("pipeline", pipeline)
    # One shared mechanism: all devices draw, in device order, from the
    # same audited noise stream — the invariant both paths preserve.
    mechanism = make_mechanism(arm, sensor, epsilon, **mechanism_kwargs)
    if hasattr(mechanism, "rng") and hasattr(mechanism.rng, "kernel"):
        # Resolve the codebook kernel (shared, process-wide) before the
        # epoch loop so every epoch privatizes as pure table gathers.
        mechanism.rng.kernel
    devices = [
        Device(fleet_device_id(i), mechanism, budget=device_budget)
        for i in range(n_devices)
    ]
    lam = sensor.d / epsilon if arm != "rr" else None
    server = AggregationServer(noise_scale=lam)
    true_means: List[float] = []

    # Vectorized per-device budget state (batched path only).
    loss = mechanism.claimed_loss_bound
    remaining = (
        np.full(n_devices, float(device_budget)) if device_budget is not None else None
    )
    cached_codes = np.full(n_devices, np.nan)
    n_fresh = np.zeros(n_devices, dtype=np.int64)
    n_cached = np.zeros(n_devices, dtype=np.int64)

    for epoch in range(n_epochs):
        reporting = rng.random(n_devices) >= dropout
        if not reporting.any():
            reporting[int(rng.integers(n_devices))] = True  # never a silent epoch
        if batched:
            idx = np.flatnonzero(reporting)
            accounting = (
                ArrayCharge(remaining, cached_codes, loss, index=idx)
                if remaining is not None
                else None
            )
            try:
                outcome = mechanism.release(
                    true_values[epoch, idx],
                    accounting=accounting,
                    channel=f"epoch-{epoch}",
                )
            except BudgetExhaustedError as exc:
                raise ConfigurationError(str(exc)) from exc
            hits = outcome.cache_hits
            n_fresh[idx] += ~hits
            n_cached[idx] += hits
            server.submit_all(
                Report(
                    device_id=devices[i].device_id,
                    epoch=epoch,
                    value=float(outcome.values[j]),
                    claimed_loss=loss,
                )
                for j, i in enumerate(idx)
            )
        else:
            for i in np.flatnonzero(reporting):
                server.submit(devices[i].report(float(true_values[epoch, i]), epoch))
        true_means.append(float(true_values[epoch, reporting].mean()))

    if batched:
        # Fold the vectorized state back into the Device objects so the
        # two paths expose the same post-run API (n_fresh, budgets, ...).
        for i, dev in enumerate(devices):
            dev.n_fresh = int(n_fresh[i])
            dev.n_cached = int(n_cached[i])
            if remaining is not None and dev._accountant is not None:
                dev._accountant._spent = float(device_budget) - float(remaining[i])
            if not np.isnan(cached_codes[i]):
                dev._cache.code = cached_codes[i]
    estimated = [server.summarize(e).mean for e in server.epochs]
    return FleetResult(
        server=server,
        devices=devices,
        true_means=true_means,
        estimated_means=estimated,
    )
