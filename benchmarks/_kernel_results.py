"""``BENCH_kernels.json``: the one writer and timing method of the kernel benches.

Each row times its two sides ``REPEATS`` times, alternating which side
runs first, and records the median and quartiles of both times and of
the per-repeat speedup, with the host block ``bench_parallel_fleet.py``
records.  Every ``min_speedup`` floor is checked against the median
speedup.
"""

import json
import pathlib
import time

from bench_parallel_fleet import _host, _summary

RESULTS_JSON = pathlib.Path(__file__).resolve().parents[1] / "BENCH_kernels.json"
SCHEMA = 2
REPEATS = 5


def time_pairs(first, second, repeats=REPEATS):
    """Per-repeat wall times ``(t_first, t_second)`` of two callables.

    Even repeats run ``first`` then ``second``, odd repeats the reverse,
    so drift in the host's state does not favour either side.
    """
    times = ([], [])
    for i in range(repeats):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            t0 = time.perf_counter()
            (first, second)[side]()
            times[side].append(time.perf_counter() - t0)
    return times


def speedup_row(t_fast, t_slow, fast, slow, scale=1.0, unit="s"):
    """Summaries of both sides' times and of the per-repeat speedup."""
    return {
        f"{fast}_{unit}": _summary([t * scale for t in t_fast]),
        f"{slow}_{unit}": _summary([t * scale for t in t_slow]),
        "speedup": _summary([s / f for f, s in zip(t_fast, t_slow)]),
        "repeats": len(t_fast),
    }


def merge_results(section, payload):
    """Write one section (stamped with the host) into BENCH_kernels.json."""
    data = {}
    if RESULTS_JSON.exists():
        try:
            data = json.loads(RESULTS_JSON.read_text())
        except json.JSONDecodeError:
            pass
    data["schema"] = SCHEMA
    data[section] = dict(payload, host=_host())
    RESULTS_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
