"""The fleet runner host: the system under test of the fleet workloads.

Reads one JSON command per stdin line and answers each with one JSON
line on stdout:

* ``{"op": "setup", "spec": {...}, "seed": N}`` — build the truth
  matrix from the seed and warm the codebook; answers ``{"ok": true}``.
* ``{"op": "call", "index": C, "workers": W}`` — run call ``C`` of the
  sequence; answers its wall time (pool start-up included), report and
  draw counts, and the aggregation server's snapshot.
* ``{"op": "quit"}`` — answers and exits.

Run by ``fleet_workload.py`` with ``src/`` on ``PYTHONPATH``; not meant
to be started by hand.
"""

import json
import sys
import time
import traceback

from fleet_workload import FleetSpec, reference_mechanism, make_truth, run_call


def _call(spec, truth, seed, index, workers):
    t0 = time.perf_counter()
    result = run_call(spec, truth, seed, index, workers)
    wall = time.perf_counter() - t0
    snapshot = result.server.snapshot()
    if spec.categorical:
        reports = sum(e["n_reports"] for e in snapshot["categorical_epochs"].values())
    else:
        reports = sum(e["count"] for e in snapshot["epochs"].values())
    return {
        "ok": True,
        "wall_s": wall,
        "reports": reports,
        "draws": result.counters.n_draws,
        "snapshot": snapshot,
    }


def main() -> int:
    spec = truth = seed = None
    for line in sys.stdin:
        command = json.loads(line)
        op = command["op"]
        try:
            if op == "setup":
                spec = FleetSpec(**command["spec"])
                seed = command["seed"]
                truth = make_truth(spec, seed)
                reference = reference_mechanism(spec)
                if not spec.categorical:
                    reference.rng.kernel  # builds the codebook once
                reply = {"ok": True}
            elif op == "call":
                reply = _call(spec, truth, seed, command["index"], command["workers"])
            elif op == "quit":
                reply = {"ok": True}
            else:
                reply = {"ok": False, "error": f"unknown op {op!r}"}
        except Exception:
            reply = {"ok": False, "error": traceback.format_exc(limit=3)}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        if op == "quit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
