"""Fleet workloads: the sharded release pipeline, no socket, no guards.

The system under test is a fleet runner host (``fleet_host.py``) in a
fresh subprocess: it builds the inputs this module generates from the
seed, then runs a fixed sequence of ``run_fleet_sharded`` /
``run_fleet_categorical`` calls (2 workers, shm transport, streaming
fold) on command, timing each call with its pool start-up.  After the
timed calls it repeats call 0 with ``workers=1``: the single-process
baseline, which must match the pooled snapshot bit for bit.

Correctness is checked here, against the same seeded inputs: the
estimates of every call must lie within 4σ of their exact expectation —
pooled over the run into one statistic, so a run makes one test — using
the exact per-code output moments of the resampling mechanism, or the
closed-form variance of the OLH frequency estimator.

The traced run replays call 0 in this process through the public calls
a shard makes — ``mechanism.release`` (or OLH ``encode``/``perturb``/
``support_counts``), ``submit_array``/``submit_counts``,
``summarize``/``frequency_estimates`` — and must reproduce the
single-process snapshot bit for bit, which shows the spans timed the
real work.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from _harness import SutProcess, record_check
from repro.aggregation import AggregationServer
from repro.mechanisms import SensorSpec, make_mechanism, make_oracle
from repro.parallel import plan_shards, run_fleet_categorical, run_fleet_sharded
from repro.queries.frequency import frequency_variance
from repro.rng import audited_generator
from repro.rng.codebook import codebook_cache
from repro.rng.urng import SplitStreamSource, shard_seed_sequences
from repro.runtime import ReleasePipeline

SENSOR = SensorSpec(0.0, 50.0)
EPSILON = 2.0
#: Statistical checks fail beyond this many standard deviations.
SIGMAS = 4.0
#: Calls whose estimates the statistical check pools (it costs set-up
#: time per call, and bit-identity already ties the rest to call 0).
STAT_CALLS = 4


@dataclasses.dataclass(frozen=True)
class FleetSpec:
    """One fleet workload: the runner call and its sizes."""

    name: str
    arm: str
    """``resampling`` (numeric, ``run_fleet_sharded``) or ``olh``
    (categorical, ``run_fleet_categorical``)."""
    devices: int
    epochs: int
    nominal_call_s: float
    """Pooled call time on the reference host; sizes the call count."""
    categories: int = 256
    zipf: float = 1.3
    dropout: float = 0.1
    shards: int = 8
    workers: int = 2

    kind = "fleet"

    @property
    def categorical(self) -> bool:
        return self.arm == "olh"

    def calls(self, seconds: float) -> int:
        return max(2, round(seconds / self.nominal_call_s))


# ---------------------------------------------------------------------------
# Inputs, shared with the host process
# ---------------------------------------------------------------------------
def make_truth(spec: FleetSpec, seed: int) -> np.ndarray:
    """The ``(epochs, devices)`` truth matrix of a run."""
    gen = audited_generator(np.random.SeedSequence([seed, 10]))
    if spec.categorical:
        weights = np.arange(1, spec.categories + 1, dtype=float) ** -spec.zipf
        return gen.choice(
            spec.categories, p=weights / weights.sum(), size=(spec.epochs, spec.devices)
        )
    return gen.uniform(SENSOR.m, SENSOR.M, size=(spec.epochs, spec.devices))


def call_seeds(seed: int, call: int) -> Tuple[np.random.SeedSequence, np.random.SeedSequence]:
    """``(noise seed, dropout seed)`` of call ``call``: distinct per call."""
    return (
        np.random.SeedSequence([seed, 11, call]),
        np.random.SeedSequence([seed, 12, call]),
    )


def run_call(spec: FleetSpec, truth: np.ndarray, seed: int, call: int, workers: int):
    """One runner call exactly as the host makes it."""
    source_seed, dropout_seed = call_seeds(seed, call)
    common = dict(
        dropout=spec.dropout,
        rng=audited_generator(dropout_seed),
        source_seed=source_seed,
        workers=workers,
        shards=spec.shards,
    )
    if spec.categorical:
        return run_fleet_categorical(
            truth, spec.categories, EPSILON, oracle=spec.arm, **common
        )
    return run_fleet_sharded(
        truth, SENSOR, EPSILON, arm=spec.arm, streaming=True, with_devices=False,
        **common,
    )


def reporting_masks(spec: FleetSpec, seed: int, call: int) -> np.ndarray:
    """The runner's dropout masks for a call, drawn as the coordinator
    draws them: one ``random(n) >= dropout`` per epoch from the call's
    dropout generator (an all-straggler epoch cannot occur at these
    fleet sizes; the count check below would catch one)."""
    gen = audited_generator(call_seeds(seed, call)[1])
    return np.stack(
        [gen.random(spec.devices) >= spec.dropout for _ in range(spec.epochs)]
    )


def reference_mechanism(spec: FleetSpec):
    if spec.categorical:
        return make_oracle(spec.arm, spec.categories, EPSILON)
    return make_mechanism(spec.arm, SENSOR, EPSILON, input_bits=14)


# ---------------------------------------------------------------------------
# Statistical checks
# ---------------------------------------------------------------------------
def _code_moments(mechanism) -> Tuple[np.ndarray, np.ndarray]:
    """Exact mean and variance of the released value for every input code."""
    lo, hi = mechanism.window
    means, variances = [], []
    for k in range(mechanism.k_m, mechanism.k_M + 1):
        out = mechanism.noise_pmf.shifted(k).truncated(lo, hi)
        means.append(out.mean())
        variances.append(out.variance())
    return np.asarray(means), np.asarray(variances)


def mean_z(spec, truth, seed, snapshots: List[Dict]) -> Tuple[float, str]:
    """Pooled z of every epoch mean of every call against its exact
    expectation; also checks the per-epoch report counts."""
    mechanism = reference_mechanism(spec)
    means, variances = _code_moments(mechanism)
    codes = mechanism.quantize_inputs(truth) - mechanism.k_m
    error = variance = 0.0
    for call, snap in enumerate(snapshots):
        masks = reporting_masks(spec, seed, call)
        for epoch in range(spec.epochs):
            got = snap["epochs"][str(epoch)]
            reporting = codes[epoch][masks[epoch]]
            n = reporting.size
            if got["count"] != n:
                return float("inf"), f"call {call} epoch {epoch}: {got['count']} reports, masks say {n}"
            error += got["mean"] - means[reporting].mean()
            variance += variances[reporting].sum() / (n * n)
    z = error / np.sqrt(variance)
    return z, f"z={z:+.3f} over {len(snapshots)} calls x {spec.epochs} epochs"


def frequency_z(spec, truth, seed, snapshots: List[Dict]) -> Tuple[float, str]:
    """Standardized chi-square of every category estimate of every call
    against the true frequencies, with the closed-form variance."""
    oracle = reference_mechanism(spec)
    p, q = oracle.estimator_params()
    stat = 0.0
    dof = 0
    for call, snap in enumerate(snapshots):
        masks = reporting_masks(spec, seed, call)
        for epoch in range(spec.epochs):
            got = snap["categorical_epochs"][str(epoch)]
            counts = np.asarray(got["counts"], dtype=float)
            n = got["n_reports"]
            if n != int(masks[epoch].sum()):
                return float("inf"), f"call {call} epoch {epoch}: {n} reports, masks say {int(masks[epoch].sum())}"
            true_f = np.bincount(truth[epoch][masks[epoch]], minlength=spec.categories) / n
            est = (counts / n - q) / (p - q)
            var = np.array([frequency_variance(n, p, q, f) for f in true_f])
            stat += float(((est - true_f) ** 2 / var).sum())
            dof += spec.categories
    z = (stat - dof) / np.sqrt(2.0 * dof)
    return z, f"chi-square z={z:+.3f} over {dof} category estimates"


# ---------------------------------------------------------------------------
# In-process traced replay of call 0
# ---------------------------------------------------------------------------
def replay(spec: FleetSpec, truth: np.ndarray, seed: int, rec) -> Dict[str, object]:
    """Call 0 with ``workers=1``, through the public per-shard calls."""
    source_seed, _ = call_seeds(seed, 0)
    plan = plan_shards(spec.devices, spec.shards)
    seqs = shard_seed_sequences(source_seed, plan.n_shards)
    masks = reporting_masks(spec, seed, 0)
    reference = reference_mechanism(spec)
    loss = reference.claimed_loss_bound
    outputs: List[List[Optional[Tuple[np.ndarray, int]]]] = [
        [None] * plan.n_shards for _ in range(spec.epochs)
    ]
    reports = 0
    root = rec.begin("replay")
    for s, (start, stop) in enumerate(plan.slices):
        i = rec.begin("mechanisms.build")
        pipeline = ReleasePipeline()
        source = SplitStreamSource(seqs[s])
        if spec.categorical:
            arm = make_oracle(spec.arm, spec.categories, EPSILON, source=source,
                              pipeline=pipeline)
        else:
            arm = make_mechanism(spec.arm, SENSOR, EPSILON, input_bits=14,
                                 source=source, pipeline=pipeline)
            arm.rng.kernel
        rec.end(i)
        shard_truth = truth[:, start:stop]
        for epoch in range(spec.epochs):
            idx = np.flatnonzero(masks[epoch, start:stop])
            if idx.size == 0:
                continue
            if spec.categorical:
                users = start + idx
                i = rec.begin("mechanisms.encode")
                encoded = arm.encode(shard_truth[epoch, idx], user_offset=users)
                rec.end(i)
                i = rec.begin("mechanisms.perturb")
                out = arm.perturb(encoded, user_offset=users)
                rec.end(i)
                i = rec.begin("mechanisms.support_counts")
                counts = np.asarray(arm.support_counts(out, user_offset=users),
                                    dtype=np.int64)
                rec.end(i)
                outputs[epoch][s] = (counts, int(idx.size))
            else:
                i = rec.begin("mechanisms.release")
                out = arm.release(shard_truth[epoch, idx])
                rec.end(i)
                outputs[epoch][s] = (np.asarray(out.values, dtype=float), int(idx.size))
            reports += int(idx.size)
    if spec.categorical:
        server = AggregationServer(streaming=True)
    else:
        server = AggregationServer(noise_scale=SENSOR.d / EPSILON, streaming=True)
    for epoch in range(spec.epochs):
        for s in range(plan.n_shards):
            if outputs[epoch][s] is None:
                continue
            data, n = outputs[epoch][s]
            i = rec.begin("aggregation.fold")
            if spec.categorical:
                server.submit_counts(epoch, data, n, loss)
            else:
                server.submit_array(epoch, data, loss)
            rec.end(i)
    per_device = masks.sum(axis=0)
    i = rec.begin("aggregation.fold")
    server.record_claimed_losses(
        {f"dev-{d:04d}": float(per_device[d]) * loss for d in np.flatnonzero(per_device)}
    )
    rec.end(i)
    estimate_s = []
    for epoch in range(spec.epochs):
        i = rec.begin("queries.estimate")
        t0 = time.perf_counter()
        if spec.categorical:
            server.frequency_estimates(epoch, reference)
        else:
            server.summarize(epoch)
        estimate_s.append(time.perf_counter() - t0)
        rec.end(i)
    i = rec.begin("aggregation.snapshot")
    snapshot = server.snapshot()
    rec.end(i)
    rec.end(root)
    return {
        "root": root,
        "snapshot": snapshot,
        "reports": reports,
        "estimate_s": estimate_s,
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
HOST = str(Path(__file__).resolve().parent / "fleet_host.py")


def _start_host(spec: FleetSpec, seed: int) -> SutProcess:
    host = SutProcess([HOST], f"{spec.name}-sut.log")
    try:
        reply = host.request(
            {"op": "setup", "spec": dataclasses.asdict(spec), "seed": seed},
            timeout=120.0,
        )
        if not reply.get("ok"):
            raise RuntimeError(f"fleet host set-up failed: {reply}")
    except BaseException:
        host.close(timeout=1.0)
        raise
    return host


def run(spec: FleetSpec, seed: int, seconds: float, rec, setups: int) -> Dict:
    """Set up ``setups`` times, time the pooled calls, then check."""
    n_calls = spec.calls(seconds)
    setup_s: List[float] = []
    host: Optional[SutProcess] = None
    for attempt in range(setups):
        t0 = time.perf_counter()
        candidate = _start_host(spec, seed)
        setup_s.append(time.perf_counter() - t0)
        if attempt == setups - 1:
            host = candidate
        else:
            candidate.request({"op": "quit"}, timeout=60.0)
            candidate.close()
    assert host is not None
    calls: List[Dict] = []
    try:
        cpu0 = host.stats.cpu_s()
        bench_cpu0 = time.process_time()
        t0 = time.perf_counter()
        for call in range(n_calls):
            calls.append(host.request(
                {"op": "call", "index": call, "workers": spec.workers}, timeout=170.0
            ))
        wall = time.perf_counter() - t0
        loadgen_cpu_frac = (time.process_time() - bench_cpu0) / wall
        sut_cpu = host.stats.cpu_s() - cpu0
        serial = host.request({"op": "call", "index": 0, "workers": 1}, timeout=170.0)
        peak_rss_mb = host.stats.peak_rss_mb()
        host.request({"op": "quit"}, timeout=60.0)
    finally:
        host.close()

    checks: Dict[str, Dict] = {}
    failed = sum(1 for c in calls + [serial] if not c.get("ok"))
    record_check(checks, "calls_succeeded", failed == 0,
                 "; ".join(c.get("error", "") for c in calls + [serial] if not c.get("ok")))
    if failed:
        return {"checks": checks, "attempted": n_calls + 1, "failed": failed,
                "e2e": {}, "layers": {}, "stages": None, "setup_samples_s": setup_s}
    record_check(checks, "pooled_equals_serial", serial["snapshot"] == calls[0]["snapshot"],
                 f"workers={spec.workers} vs workers=1 snapshot of call 0")
    truth = make_truth(spec, seed)
    snapshots = [c["snapshot"] for c in calls[:STAT_CALLS]]
    z, detail = (frequency_z if spec.categorical else mean_z)(spec, truth, seed, snapshots)
    record_check(checks, "estimates_within_4_sigma", abs(z) <= SIGMAS, detail)

    reports = sum(c["reports"] for c in calls)
    walls = [c["wall_s"] for c in calls]
    per_call = reports / n_calls
    e2e = {
        "setup_s": float(np.median(setup_s)),
        "reports_per_s": reports / sum(walls),
        "admit_p50_ms": float(np.median(walls)) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": failed / (n_calls + 1),
    }
    layers: Dict[str, Optional[float]] = {
        "aggregation.devices_tracked": calls[0]["snapshot"]["n_devices_tracked"],
        "runtime.draws_per_report": sum(c["draws"] for c in calls) / reports,
        "sut.cpu_s_per_mreport": sut_cpu / (reports / 1e6),
        "loadgen.cpu_frac": loadgen_cpu_frac,
        "service.server.max_queue_depth": 0,
        "service.server.busy_frac": 0.0,
        "parallel.serial_reports_per_s": serial["reports"] / serial["wall_s"],
        "parallel.speedup": (reports / sum(walls)) / (serial["reports"] / serial["wall_s"]),
    }
    stages = None
    if rec.enabled:
        with rec.span("rng.warmup"):
            codebook_cache().clear()
            warm = reference_mechanism(spec)
            if not spec.categorical:
                warm.rng.kernel
        warmup = rec.roots("rng.warmup")[-1]
        layers["rng.warmup_s"] = (rec.ends[warmup] - rec.starts[warmup]) / 1e9
        replayed = replay(spec, truth, seed, rec)
        record_check(checks, "replay_equals_serial",
                     json.loads(json.dumps(replayed["snapshot"])) == serial["snapshot"],
                     "in-process traced replay vs the workers=1 call")
        stages = rec.stage_table(replayed["root"])
        record_check(checks, "span_coverage", stages["coverage"] >= 0.95,
                     f"{stages['coverage']:.4f} of the traced replay is inside stage spans")
        kreports = replayed["reports"] / 1e3
        self_ms = {row["stage"]: row["self_ms"] for row in stages["rows"]}
        release_ms = sum(self_ms.get(s, 0.0) for s in (
            "mechanisms.release", "mechanisms.encode", "mechanisms.perturb"))
        layers["mechanisms.release_us_per_kreport"] = release_ms * 1e3 / kreports
        if spec.categorical:
            for stage in ("encode", "perturb", "support_counts"):
                layers[f"mechanisms.{stage}_us_per_kreport"] = (
                    self_ms.get(f"mechanisms.{stage}", 0.0) * 1e3 / kreports
                )
        layers["aggregation.fold_us_per_kreport"] = (
            self_ms.get("aggregation.fold", 0.0) * 1e3 / kreports
        )
        layers["aggregation.snapshot_us"] = self_ms.get("aggregation.snapshot", 0.0) * 1e3
        layers["queries.estimate_ms"] = float(np.median(replayed["estimate_s"])) * 1e3
        busy_ms = stages["wall_ms"] - self_ms["residual"]
        residual_ms = serial["wall_s"] * 1e3 - busy_ms
        layers["parallel.residual_ms_per_call"] = residual_ms
        layers["sut.residual_us_per_kreport"] = residual_ms * 1e3 / kreports
    return {
        "checks": checks,
        "attempted": n_calls + 1,
        "failed": failed,
        "e2e": e2e,
        "layers": layers,
        "stages": stages,
        "setup_samples_s": setup_s,
        "sizes": {"calls": n_calls, "reports_per_call": per_call},
    }
