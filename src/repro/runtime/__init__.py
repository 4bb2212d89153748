"""Instrumented release pipeline (clip → draw → guard → charge → emit).

One execution core under every release path in the library: the six
mechanism arms, the cycle-level DP-Box, the multi-sensor shared-budget
box, and fleet devices all delegate to :class:`ReleasePipeline`, which
emits one structured :class:`ReleaseEvent` per release into pluggable
sinks.  See ``docs/runtime.md`` for the stage model, the event schema,
and the ``python -m repro trace`` CLI.
"""

from .accounting import ChargeOutcome, NoCharge, SlotCharge, budget_columns
from .events import (
    EVENT_SCHEMA_VERSION,
    INGEST_SCHEMA_VERSION,
    IngestEvent,
    ReleaseEvent,
)
from .pipeline import (
    DEFAULT_MAX_ROUNDS,
    ReleaseOutcome,
    ReleasePipeline,
    ReleaseRequest,
    default_pipeline,
    set_default_pipeline,
)
from .sinks import (
    CounterSink,
    EventSink,
    JsonlSink,
    RingBufferSink,
    read_events_jsonl,
)

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "INGEST_SCHEMA_VERSION",
    "DEFAULT_MAX_ROUNDS",
    "ReleaseEvent",
    "IngestEvent",
    "ReleaseRequest",
    "ReleaseOutcome",
    "ReleasePipeline",
    "default_pipeline",
    "set_default_pipeline",
    "EventSink",
    "RingBufferSink",
    "JsonlSink",
    "CounterSink",
    "read_events_jsonl",
    "ChargeOutcome",
    "NoCharge",
    "SlotCharge",
    "budget_columns",
]
