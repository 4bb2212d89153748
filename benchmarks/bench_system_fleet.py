"""System bench — the full Fig. 2(b) stack vs the analytic prediction.

Runs the device-fleet → untrusted-aggregator pipeline at several fleet
sizes and compares the measured mean-query error against the closed-form
prediction ``2λ/√(πN)``.  The theory line is the deployment-sizing tool
(`devices_for_target_mae`); the bench shows the end-to-end system —
guards, grids, budgets and all — actually sits on it.
"""

import numpy as np

from repro.analysis import predicted_mean_mae, render_series
from repro.aggregation import run_fleet
from repro.mechanisms import SensorSpec

from conftest import record_experiment

SENSOR = SensorSpec(0.0, 10.0)
EPSILON = 0.5
FLEET_SIZES = (100, 300, 1000, 3000)
EPOCHS = 6


def bench_system_fleet_vs_theory(benchmark):
    lam = SENSOR.d / EPSILON

    def run():
        measured = []
        for n in FLEET_SIZES:
            rng = np.random.default_rng(n)
            truth = rng.uniform(3.0, 7.0, size=(EPOCHS, n))
            result = run_fleet(
                truth,
                SENSOR,
                epsilon=EPSILON,
                rng=np.random.default_rng(n + 1),
                source_seed=n + 2,
                input_bits=13,
                output_bits=18,
                delta=10 / 64,
            )
            measured.append(result.mean_abs_error)
        return measured

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    predicted = [predicted_mean_mae(lam, n) for n in FLEET_SIZES]

    # Thresholding truncates the noise slightly, so measured can sit a
    # bit under the untruncated prediction; both must scale as 1/sqrt(N).
    ratios = [m / p for m, p in zip(measured, predicted)]
    ok = all(0.3 < r < 2.0 for r in ratios)
    text = "\n".join(
        [
            render_series(
                "devices",
                list(FLEET_SIZES),
                [
                    ("measured fleet MAE", [f"{v:.4f}" for v in measured]),
                    ("predicted 2λ/√(πN)", [f"{v:.4f}" for v in predicted]),
                    ("ratio", [f"{r:.2f}" for r in ratios]),
                ],
                title=(
                    f"system fleet vs theory: mean-query MAE, ε={EPSILON}, "
                    f"{EPOCHS} epochs per point"
                ),
            ),
            "",
            "expected: the end-to-end system tracks the analytic 1/√N law "
            "within truncation effects — " + ("CONFIRMED" if ok else "MISMATCH"),
        ]
    )
    record_experiment("system_fleet_vs_theory", text)
    assert ok
