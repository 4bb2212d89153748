"""Network-facing ingestion in front of the aggregation server.

This package is the first component of the reproduction that meets
*untrusted* input: device report batches arriving over a socket, from a
fleet the coordinator does not control.  Three layers:

* :mod:`repro.service.protocol` — the two negotiated wire formats
  (JSONL lines, the default, and the length-prefixed binary columnar
  frames of wire v2) and their strict decoders.
* :mod:`repro.service.guards` — the composable pre-admission guard
  chain.  Every guard returns ALLOW / WARN / BLOCK / REPAIR with a
  structured reason; the chain outcome is always one of *fully
  admitted*, *repaired with a recorded delta*, or *blocked with a
  reason* — no request is ever silently dropped.
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio ingestion service (bounded queue, explicit BUSY backpressure,
  micro-batched folds into :class:`~repro.aggregation.AggregationServer`
  through its thread-safe ingest handle) and the blocking client +
  load generator that drive it.

Every admission decision is emitted as a
:class:`~repro.runtime.IngestEvent` through the same sink machinery as
release events, so ``python -m repro trace --replay`` audits admissions
next to releases.  See ``docs/service.md`` for the wire format, the
guard-chain semantics, and the backpressure contract.
"""

from .client import IngestClient, LoadReport, run_load
from .guards import (
    ChainOutcome,
    EpochBudgetGuard,
    Guard,
    GuardChain,
    GuardDecision,
    RateLimitGuard,
    SchemaGuard,
    Verdict,
    default_chain,
)
from .protocol import (
    BINARY_WIRE_VERSION,
    decode_binary_frame,
    decode_line,
    encode,
    encode_binary_counts,
    encode_binary_submit,
    encode_cached,
)
from .server import IngestionService, ServiceConfig

__all__ = [
    "Verdict",
    "GuardDecision",
    "ChainOutcome",
    "Guard",
    "GuardChain",
    "SchemaGuard",
    "EpochBudgetGuard",
    "RateLimitGuard",
    "default_chain",
    "BINARY_WIRE_VERSION",
    "decode_line",
    "decode_binary_frame",
    "encode",
    "encode_binary_submit",
    "encode_binary_counts",
    "encode_cached",
    "IngestionService",
    "ServiceConfig",
    "IngestClient",
    "LoadReport",
    "run_load",
]
