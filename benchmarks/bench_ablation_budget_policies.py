"""Ablation — Algorithm-1 adaptive charging vs naive request counting.

Section III-C motivates the output-adaptive accountant: "one simple way
to implement budget control ... is by simply counting the number of
requests", charging every request the worst-case loss.  The adaptive
policy charges the realized segment's loss instead, so central (likely)
outputs cost less and the same budget answers more queries.
"""

import numpy as np

from repro.analysis import render_table
from repro.core import build_segment_table
from repro.mechanisms import SensorSpec, make_mechanism
from repro.rng import SplitStreamSource
from repro.runtime import SlotCharge, budget_columns

from conftest import record_experiment

SENSOR = SensorSpec(0.0, 10.0)
EPSILON = 0.5
BUDGET = 20.0
LEVELS = (1.0, 1.25, 1.5, 1.75, 2.0)
REPEATS = 10


def bench_ablation_budget_policies(benchmark):
    mech = make_mechanism(
        "thresholding", SENSOR, EPSILON, input_bits=14, output_bits=18, delta=10 / 64,
        source=SplitStreamSource(8),
    )
    family = mech._family()
    table = build_segment_table(family, EPSILON, LEVELS)
    worst = mech.ldp_report().worst_loss  # what naive counting must charge

    def run():
        fresh_adaptive, fresh_naive = [], []
        for rep in range(REPEATS):
            rng = np.random.default_rng(rep)
            xs = rng.uniform(SENSOR.m, SENSOR.M, 4000)
            adaptive = SlotCharge(*budget_columns(BUDGET), table)
            count_a = 0
            for x in xs:
                y = float(mech.privatize(np.asarray([x]))[0])
                k = int(round(y / mech.delta))
                if adaptive.charge(np.asarray([k])).cache_hits[0]:
                    break
                count_a += 1
            fresh_adaptive.append(count_a)
            fresh_naive.append(int(BUDGET // worst))
        return float(np.mean(fresh_adaptive)), float(np.mean(fresh_naive))

    adaptive, naive = benchmark.pedantic(run, rounds=1, iterations=1)
    gain = adaptive / naive
    text = "\n".join(
        [
            render_table(
                ["policy", "fresh queries per budget", "per-query charge"],
                [
                    ["naive request counting", f"{naive:.1f}", f"{worst:.3f} (worst case)"],
                    ["Algorithm 1 (adaptive)", f"{adaptive:.1f}", "segment-dependent"],
                ],
                title=(
                    f"Ablation: budget policies, budget={BUDGET}, eps={EPSILON}, "
                    f"uniform queries, mean of {REPEATS} runs"
                ),
            ),
            "",
            f"adaptive answers {gain:.2f}x as many queries before exhaustion — "
            + ("CONFIRMED" if gain > 1.2 else "MISMATCH"),
        ]
    )
    record_experiment("ablation_budget_policies", text)
    assert gain > 1.2
