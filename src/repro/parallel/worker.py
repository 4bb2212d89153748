"""The per-shard worker: one device slice, one noise stream, one pipeline.

Everything a worker needs crosses the process boundary once, as a
picklable :class:`ShardTask`: the shard kernel (the recipe of what to
release and how to write it down — see :mod:`repro.parallel.runner` and
:mod:`repro.parallel.categorical`), the spawned
:class:`~numpy.random.SeedSequence` for the shard's audited stream, and
shared-memory refs (:mod:`repro.parallel.shm`) to its input slices and
output regions.  The coordinator draws all dropout randomness, so a
worker consumes *only* its own audited stream.

:func:`run_shard` is a module-level function so it pickles by reference
into a ``ProcessPoolExecutor``; it also runs inline (no pool) for
``workers=1``, where the attach reuses the coordinator's own mappings.
Either way the worker reads its truth and reporting slices from the
arena and writes its outputs straight into coordinator-owned buffers;
only block names, shapes and the small trace artifacts cross the pipe.

Codebook shipping: pool workers start via :func:`install_shipments`,
which adopts the coordinator's already-built ``m → k`` table into the
process-wide :class:`~repro.rng.codebook.CodebookCache` — each worker
process warms once per (config, backend) instead of re-sweeping the
``2**Bu`` alphabet.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..rng.codebook import codebook_cache
from ..runtime import CounterSink, ReleasePipeline, RingBufferSink
from ..runtime.events import ReleaseEvent
from .shm import ShmArrayRef

__all__ = [
    "CodebookShipment",
    "ShardTask",
    "ShardResult",
    "run_shard",
    "install_shipments",
]


@dataclasses.dataclass(frozen=True)
class CodebookShipment:
    """A pre-built codebook table shipped coordinator → worker.

    The table is a deterministic function of ``(config, backend)``, so
    adopting it is exactly as audited as rebuilding it — see
    :meth:`repro.rng.codebook.CodebookCache.install`.
    """

    config: object  # FxpLaplaceConfig (kept untyped: no rng import cycle)
    fingerprint: Tuple
    table: np.ndarray


def install_shipments(shipments: Sequence[CodebookShipment]) -> None:
    """Pool initializer: warm this process's codebook cache."""
    cache = codebook_cache()
    for shipment in shipments:
        cache.install(shipment.config, shipment.fingerprint, shipment.table)


@dataclasses.dataclass
class ShardTask:
    """Everything one shard needs, picklable."""

    kernel: object
    """The shard kernel: builds the arm, runs the per-epoch step."""
    shard_index: int
    n_shards: int
    start: int
    """Global device index of this shard's first device."""
    seed_seq: np.random.SeedSequence
    """Spawned sub-seed of the fleet seed; this shard's audited stream."""
    truth: ShmArrayRef
    """True values, shape ``(n_epochs, shard_devices)``."""
    reporting: ShmArrayRef
    """Coordinator-drawn reporting masks, same shape, bool."""
    outputs: Dict[str, ShmArrayRef]
    """This shard's output regions, named by the kernel."""


@dataclasses.dataclass
class ShardResult:
    """What rides back through the pipe: the shard's trace artifacts.

    The privatized output already sits in the coordinator's buffers.
    """

    events: List[ReleaseEvent]
    counter: CounterSink


def _shard_channel(epoch: int, shard_index: int, n_shards: int) -> str:
    # A single-shard plan reproduces the legacy per-epoch channel names,
    # so shards=1 traces are indistinguishable from unsharded ones.
    if n_shards == 1:
        return f"epoch-{epoch}"
    return f"epoch-{epoch}/shard-{shard_index}"


def run_shard(task: ShardTask) -> ShardResult:
    """Privatize one shard's device slice across all epochs.

    One pipeline release per (epoch, shard) through the kernel's arm.
    Shard-epochs with no reporting device are skipped outright —
    deterministically, since the masks are fixed inputs — so they
    consume no noise stream.  ``cursor`` counts the reports this shard
    has written so far; kernels with a flat per-report output region
    write the epoch's reports at that offset, and the coordinator
    derives the same offsets from the same masks when it folds.
    """
    truth = task.truth.attach()
    reporting = task.reporting.attach()
    out = {name: ref.attach() for name, ref in task.outputs.items()}
    counter = CounterSink()
    ring = RingBufferSink(capacity=max(truth.shape[0] + 4, 16))
    arm = task.kernel.build(task.seed_seq, ReleasePipeline(sinks=[counter, ring]))
    cursor = 0
    for epoch in range(truth.shape[0]):
        idx = np.flatnonzero(reporting[epoch])
        if idx.size == 0:
            continue
        task.kernel.step(
            arm,
            out,
            epoch,
            idx,
            task.start,
            truth[epoch, idx],
            cursor,
            _shard_channel(epoch, task.shard_index, task.n_shards),
        )
        cursor += idx.size
    return ShardResult(events=ring.events, counter=counter)
