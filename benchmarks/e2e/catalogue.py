"""The benchmark's workloads and the metrics it reports about them.

``BENCHMARK.json`` at the repository root lists the subset a run prints
on its last line — the end-to-end metrics every workload has, and the
per-layer metrics every workload measures.  The rest are printed, kept
in each run's detail file, and compared by ``compare.py`` like the
others.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from fleet_workload import FleetSpec
from ingest_workload import IngestSpec

INGEST = ("ingest-binary-budgeted", "ingest-jsonl-small")
FLEET = ("fleet-numeric-resampling", "fleet-categorical-olh")
ALL = INGEST + FLEET


@dataclasses.dataclass(frozen=True)
class Metric:
    unit: str
    better: str
    bound: float
    """Worsening of the median, as a share of the parent's median, that
    counts as a regression (0 = any increase)."""
    workloads: Tuple[str, ...] = ALL


#: End-to-end metrics (tracing off).
E2E: Dict[str, Metric] = {
    "setup_s": Metric("s", "lower", 0.25),
    "reports_per_s": Metric("reports/s", "higher", 0.25),
    "admit_p50_ms": Metric("ms", "lower", 0.25),
    "wire_bytes_per_report": Metric("B", "lower", 0.01, INGEST),
    "peak_rss_mb": Metric("MiB", "lower", 0.1),
    "failed_frac": Metric("fraction", "lower", 0.0),
}

#: Stages of the traced runs, in path order.  ``<stage>_share`` is the
#: stage's self time as a share of the traced wall time.
STAGES = (
    "mechanisms.build",
    "mechanisms.release",
    "mechanisms.encode",
    "mechanisms.perturb",
    "mechanisms.support_counts",
    "service.protocol.decode",
    "service.guards.schema",
    "service.guards.epoch_budget",
    "service.guards.rate_limit",
    "service.guards.commit",
    "aggregation.fold",
    "aggregation.snapshot",
    "queries.estimate",
)

#: Per-layer metrics that time a single stage.  A workload without the
#: stage spends no time in it, so they read 0 there.
STAGE_METRICS = {
    "service.protocol.decode_us": "service.protocol.decode",
    "service.guards.schema_us": "service.guards.schema",
    "service.guards.epoch_budget_us": "service.guards.epoch_budget",
    "service.guards.rate_limit_us": "service.guards.rate_limit",
    "service.guards.commit_us": "service.guards.commit",
    "mechanisms.encode_us_per_kreport": "mechanisms.encode",
    "mechanisms.perturb_us_per_kreport": "mechanisms.perturb",
    "mechanisms.support_counts_us_per_kreport": "mechanisms.support_counts",
}

#: Per-layer metrics (traced runs) and their units.
LAYERS: Dict[str, str] = {
    "service.protocol.decode_us": "us",
    "service.guards.schema_us": "us",
    "service.guards.epoch_budget_us": "us",
    "service.guards.rate_limit_us": "us",
    "service.guards.commit_us": "us",
    "aggregation.fold_us": "us",
    "aggregation.fold_us_per_kreport": "us/kreport",
    "aggregation.snapshot_us": "us",
    "aggregation.devices_tracked": "count",
    "service.server.admit_p50_us": "us",
    "service.server.admit_p99_us": "us",
    "service.server.max_queue_depth": "count",
    "service.server.busy_frac": "fraction",
    "service.server.residual_us": "us",
    "sut.cpu_s_per_mreport": "s/Mreport",
    "sut.residual_us_per_kreport": "us/kreport",
    "mechanisms.release_us_per_kreport": "us/kreport",
    "mechanisms.encode_us_per_kreport": "us/kreport",
    "mechanisms.perturb_us_per_kreport": "us/kreport",
    "mechanisms.support_counts_us_per_kreport": "us/kreport",
    "runtime.draws_per_report": "draws/report",
    "rng.warmup_s": "s",
    "queries.estimate_ms": "ms",
    "parallel.serial_reports_per_s": "reports/s",
    "parallel.speedup": "ratio",
    "parallel.residual_ms_per_call": "ms",
    "loadgen.admit_p99_ms": "ms",
    "loadgen.snapshot_p90_ms": "ms",
    "loadgen.late_p99_ms": "ms",
    "loadgen.cpu_frac": "fraction",
    "trace.residual_share": "fraction",
    **{f"{stage}_share": "fraction" for stage in STAGES},
}

#: The workloads, with why each was chosen.
WORKLOADS = {
    "ingest-binary-budgeted": IngestSpec(
        name="ingest-binary-budgeted", wire="binary", devices=32_768, batch=1024,
        budget_epochs=65_536, closed_reports_per_s=720_000,
        open_reports_per_s=200_000, snapshot_reader=True,
    ),
    "ingest-jsonl-small": IngestSpec(
        name="ingest-jsonl-small", wire="jsonl", devices=16_384, batch=64,
        budget_epochs=None, closed_reports_per_s=430_000,
        open_reports_per_s=100_000, snapshot_reader=False,
    ),
    "fleet-numeric-resampling": FleetSpec(
        name="fleet-numeric-resampling", arm="resampling", devices=500_000,
        epochs=16, nominal_call_s=1.25,
    ),
    "fleet-categorical-olh": FleetSpec(
        name="fleet-categorical-olh", arm="olh", devices=200_000, epochs=8,
        nominal_call_s=3.6,
    ),
}

#: Tiny sizes for ``--smoke``: same code paths, a few seconds each.
SMOKE = {
    "ingest-binary-budgeted": dataclasses.replace(
        WORKLOADS["ingest-binary-budgeted"], devices=2048, batch=128,
        closed_reports_per_s=900_000, open_reports_per_s=200_000, templates=2,
        snapshot_period_s=0.002,
    ),
    "ingest-jsonl-small": dataclasses.replace(
        WORKLOADS["ingest-jsonl-small"], devices=1024, templates=2,
        closed_reports_per_s=60_000,
    ),
    "fleet-numeric-resampling": dataclasses.replace(
        WORKLOADS["fleet-numeric-resampling"], devices=20_000, epochs=4,
        nominal_call_s=0.5,
    ),
    "fleet-categorical-olh": dataclasses.replace(
        WORKLOADS["fleet-categorical-olh"], devices=20_000, epochs=2,
        nominal_call_s=0.5,
    ),
}
