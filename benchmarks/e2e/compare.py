"""Noise-aware comparison of two end-to-end benchmark result files.

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

For every workload × end-to-end metric in both files it prints one
verdict, using the regression bound ``BENCHMARK.json`` gives the metric
(or, for a metric it does not list, the bound recorded in the parent
file):

* ``regression`` — the change's median is worse than the parent's by
  more than the bound (for a bound of 0, by anything at all);
* ``gain`` — the change wins at least nine tenths of the paired runs
  (pairs taken in run order, ties counting for neither; at least ten
  pairs) and the medians differ by more than the parent's quartile
  spread;
* ``better`` — no gain claim, but every run of the change reads better
  than every run of the parent;
* ``unresolved`` — either side's quartile spread, as a share of its
  median, exceeds the bound;
* ``unchanged`` — otherwise.

A metric the parent reports and the change does not is ``missing``.
Exits 1 when any verdict is ``regression`` or ``missing``.  The host
calibration loop of both files is printed first: on a shared host a
slower loop on one side explains a uniform slowdown of that side.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _better(x: float, y: float, better: str) -> bool:
    """True when ``x`` reads strictly better than ``y``."""
    return x > y if better == "higher" else x < y


def verdict(parent: Dict, change: Dict, bound: float) -> Dict:
    """Compare one metric's samples; ``parent``/``change`` carry
    ``samples``, ``median``, ``q1``, ``q3`` and ``better``."""
    better = parent["better"]
    a, b = parent["median"], change["median"]
    worse_by = (b - a) if better == "lower" else (a - b)
    if a == 0:
        relative = math.inf if worse_by > 0 else 0.0
    else:
        relative = worse_by / abs(a)
    spreads = [
        (side["q3"] - side["q1"]) / abs(side["median"]) if side["median"] else 0.0
        for side in (parent, change)
    ]
    pairs = list(zip(parent["samples"], change["samples"]))
    wins = sum(_better(y, x, better) for x, y in pairs)
    all_better = all(
        _better(y, x, better) for x in parent["samples"] for y in change["samples"]
    )
    if relative > bound:
        label = "regression"
    elif (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and _better(b, a, better)
        and abs(b - a) > parent["q3"] - parent["q1"]
    ):
        label = "gain"
    elif all_better:
        label = "better"
    elif max(spreads) > bound:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "parent": a,
        "change": b,
        "worse_by": relative,
        "spread": max(spreads),
        "pairs": len(pairs),
        "wins": wins,
        "bound": bound,
    }


def declared_bounds(path: Path) -> Dict[str, float]:
    if not path.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def compare(parent: Dict, change: Dict, bounds: Dict[str, float]) -> List[Dict]:
    rows = []
    for workload, p_wl in parent["workloads"].items():
        c_wl = change["workloads"].get(workload, {"e2e": {}})
        for metric, p in p_wl["e2e"].items():
            c = c_wl["e2e"].get(metric)
            row = {"workload": workload, "metric": metric}
            if c is None:
                row.update(verdict="missing")
            else:
                row.update(verdict(p, c, bounds.get(metric, p["bound"])))
            rows.append(row)
    return rows


def _fmt(x: float) -> str:
    return f"{x:,.0f}" if abs(x) >= 1000 else f"{x:.4g}"


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json",
                        help="where the regression bounds come from")
    args = parser.parse_args(argv)
    parent = json.loads(args.parent.read_text())
    change = json.loads(args.change.read_text())
    rows = compare(parent, change, declared_bounds(args.benchmark))
    calib = [r.get("host", {}).get("calib_ms") for r in (parent, change)]
    if all(calib):
        a, b = (statistics.median(c) for c in calib)
        print(f"host calibration loop: parent {a:.0f} ms, change {b:.0f} ms "
              f"({b / a - 1:+.1%})")
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:<26} {row['metric']:<22} missing")
            continue
        print(f"{row['workload']:<26} {row['metric']:<22} {row['verdict']:<11} "
              f"{_fmt(row['parent']):>12} -> {_fmt(row['change']):>12}  "
              f"worse {row['worse_by']:+.3f} (bound {row['bound']:g})  "
              f"spread {row['spread']:.3f}  wins {row['wins']}/{row['pairs']}")
    failing = [r for r in rows if r["verdict"] in ("regression", "missing")]
    counts = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("summary: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
