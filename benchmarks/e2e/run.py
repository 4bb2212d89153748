"""End-to-end benchmark: device release → wire → guards → fold → estimate.

One run of one workload (the last stdout line is the result JSON, with
the ``BENCHMARK.json`` end-to-end metrics, or with ``--trace 1`` its
per-layer metrics)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0

Every workload, round-robin for ``--rounds`` rounds (each run in a fresh
process), then one traced run per workload; prints every metric and
writes the result file that ``compare.py`` reads::

    python3 benchmarks/e2e/run.py [--seed N] [--rounds 3] [--smoke] [--out PATH]

Exits non-zero if any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Run length when none is given (the value ``BENCHMARK.json`` uses).
DEFAULT_SECONDS = 18
#: Set-ups per untraced run (``--smoke``: fewer); the median is
#: reported as ``setup_s``.
SETUPS = 5
SMOKE_SETUPS = 2
#: Run length of ``--smoke`` runs.
SMOKE_SECONDS = 2


def _require_checkout() -> None:
    missing = [p for p in (SRC / "repro" / "__init__.py", BENCHMARK_JSON) if not p.is_file()]
    if missing:
        sys.exit(
            f"run.py: {', '.join(map(str, missing))} not found; "
            "run from the root of a full checkout"
        )
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
def _contract_metrics(result: dict, trace: bool) -> dict:
    """The ``BENCHMARK.json`` metrics of this run, by name and unit."""
    declared = json.loads(BENCHMARK_JSON.read_text())
    values = result["layers"] if trace else result["e2e"]
    out = {}
    for metric in declared["per_layer" if trace else "end_to_end"]:
        value = values.get(metric["name"])
        if value is not None and not math.isfinite(value):
            value = None
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def _add_stage_metrics(result: dict) -> None:
    """Each stage's share of the traced wall, and 0 for the stage
    metrics of stages this workload does not run."""
    from catalogue import STAGE_METRICS, STAGES

    layers = result["layers"]
    shares = {row["stage"]: row["share"] for row in result["stages"]["rows"]}
    for stage in STAGES:
        layers[f"{stage}_share"] = shares.get(stage, 0.0)
    layers["trace.residual_share"] = shares["residual"]
    for metric, stage in STAGE_METRICS.items():
        if stage not in shares:
            layers[metric] = 0.0


def run_one(args) -> int:
    from _harness import OUT_DIR, NullRecorder, SpanRecorder, host_block
    import catalogue

    specs = catalogue.SMOKE if args.smoke else catalogue.WORKLOADS
    if args.workload not in specs:
        sys.exit(f"run.py: unknown workload {args.workload!r}; one of {', '.join(specs)}")
    spec = specs[args.workload]
    trace = bool(args.trace)
    rec = SpanRecorder() if trace else NullRecorder()
    if spec.kind == "ingest":
        import ingest_workload as workload
    else:
        import fleet_workload as workload
    t0 = time.perf_counter()
    setups = 1 if trace else SMOKE_SETUPS if args.smoke else SETUPS
    result = workload.run(spec, args.seed, args.seconds, rec, setups)
    result.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=int(trace), smoke=args.smoke, run_s=time.perf_counter() - t0,
        host=host_block(),
    )
    if trace and result["stages"] is not None:
        _add_stage_metrics(result)
        rec.write(OUT_DIR / f"trace-{args.workload}.json")
    correct = all(c["ok"] for c in result["checks"].values())
    metrics = _contract_metrics(result, trace)
    missing = [k for k, v in metrics.items() if v["value"] is None]
    if correct and missing:
        result["checks"]["metrics_reported"] = {"ok": False, "detail": ", ".join(missing)}
        correct = False
    result["correct"] = correct
    detail = args.detail or OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{int(trace)}.json"
    Path(detail).parent.mkdir(parents=True, exist_ok=True)
    Path(detail).write_text(json.dumps(result, indent=1, default=float))
    _print_run(result)
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def _print_run(result: dict) -> None:
    from catalogue import E2E, LAYERS

    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']}"
          f"  trace={result['trace']}  ({result['run_s']:.1f}s)")
    for name, value in result["e2e"].items():
        print(f"  {name:<28} {_fmt(value):>14} {E2E[name].unit}")
    for name, value in sorted(result["layers"].items()):
        print(f"  {name:<44} {_fmt(value):>14} {LAYERS[name]}")
    if result.get("stages"):
        _print_stages(result["stages"])
    for name, check in result["checks"].items():
        print(f"  check {name:<30} {'ok' if check['ok'] else 'FAIL'}  {check['detail']}")


def _print_stages(stages: dict) -> None:
    print(f"  traced wall {stages['wall_ms']:.1f} ms, span coverage "
          f"{stages['coverage']:.4f}")
    for row in stages["rows"]:
        print(f"    {row['stage']:<30} {row['self_ms']:>10.2f} ms "
              f"{row['share']:>7.2%}  x{row['calls']}")


# ---------------------------------------------------------------------------
# Every workload, several rounds
# ---------------------------------------------------------------------------
def _spawn(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
           detail: Path) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--detail", str(detail)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if not detail.is_file():
        raise RuntimeError(
            f"{workload} run failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}"
        )
    result = json.loads(detail.read_text())
    detail.unlink()
    return result


def run_all(args) -> int:
    from _harness import OUT_DIR, calibrate, host_block, summarize
    import catalogue

    names = list(catalogue.WORKLOADS)
    rounds = 1 if args.smoke else args.rounds
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    host = host_block()
    host["calib_ms"] = []
    runs = {name: [] for name in names}
    scratch = OUT_DIR / "pending.json"
    for r in range(rounds):
        host["calib_ms"].append(calibrate())
        for name in names:
            result = _spawn(name, args.seed + r, seconds, 0, args.smoke, scratch)
            runs[name].append(result)
            print(f"round {r + 1}/{rounds} {name}: "
                  f"{'ok' if result['correct'] else 'CHECK FAILED'} "
                  f"({result['run_s']:.1f}s)", flush=True)
    traced = {}
    for name in names:
        traced[name] = _spawn(name, args.seed, seconds, 1, args.smoke, scratch)
        print(f"traced {name}: {'ok' if traced[name]['correct'] else 'CHECK FAILED'} "
              f"({traced[name]['run_s']:.1f}s)", flush=True)

    out = {"schema": 1, "seed": args.seed, "rounds": rounds, "seconds": seconds,
           "smoke": args.smoke, "host": host, "workloads": {}}
    correct = True
    for name in names:
        e2e = {}
        for metric, spec in catalogue.E2E.items():
            samples = [run["e2e"].get(metric) for run in runs[name]]
            samples = [s for s in samples if s is not None]
            if name not in spec.workloads or not samples:
                continue
            e2e[metric] = {"unit": spec.unit, "better": spec.better,
                           "bound": spec.bound, "samples": samples,
                           **summarize(samples)}
        checks = {
            f"{label}{i}.{check}": value
            for label, group in (("round", runs[name]), ("traced", [traced[name]]))
            for i, run in enumerate(group, 1)
            for check, value in run["checks"].items()
        }
        correct &= all(c["ok"] for c in checks.values())
        correct &= all(run["correct"] for run in runs[name] + [traced[name]])
        out["workloads"][name] = {
            "e2e": e2e,
            "layers": {k: {"value": v, "unit": catalogue.LAYERS[k]}
                       for k, v in sorted(traced[name]["layers"].items())},
            "stages": traced[name]["stages"],
            "checks": checks,
            "attempted": sum(r["attempted"] for r in runs[name] + [traced[name]]),
            "failed": sum(r["failed"] for r in runs[name] + [traced[name]]),
            "sizes": traced[name].get("sizes"),
        }
    out["correct"] = correct
    path = Path(args.out) if args.out else OUT_DIR / f"result-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1, default=float) + "\n")
    _print_summary(out)
    print(f"wrote {path}")
    return 0 if correct else 1


def _print_summary(out: dict) -> None:
    print(f"host: {out['host']}")
    for name, wl in out["workloads"].items():
        print(f"== {name}")
        for metric, s in wl["e2e"].items():
            print(f"  {metric:<24} {_fmt(s['median']):>12} {s['unit']:<10} "
                  f"[{_fmt(s['q1'])}, {_fmt(s['q3'])}] n={s['n']}")
        for metric, v in wl["layers"].items():
            print(f"  {metric:<44} {_fmt(v['value']):>14} {v['unit']}")
        if wl["stages"]:
            _print_stages(wl["stages"])
        bad = [k for k, c in wl["checks"].items() if not c["ok"]]
        print(f"  checks: {len(wl['checks']) - len(bad)}/{len(wl['checks'])} ok"
              + (f"; FAILED {', '.join(bad)}" if bad else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run only this workload, once")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured length of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics from a traced run")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one round: checks the benchmark itself")
    parser.add_argument("--detail", help="with --workload: where to write the run's details")
    parser.add_argument("--out", help="without --workload: where to write the result file")
    args = parser.parse_args(argv)
    # A terminated run unwinds, so every SUT it started is shut down.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _require_checkout()
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
