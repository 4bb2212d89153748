"""Ablation — DP noise distributions on fixed point (Section III-A4).

The paper argues the finite-precision failure applies to *any*
DP-guaranteeing distribution ("Laplace, Gaussian, or staircase").  This
ablation runs all three through the identical arms — each generator is
the ``noise_rng`` of the standard baseline and thresholding arms: exact
PMF → naive-arm verdict → exact threshold calibration → guarded utility.
Every generator draws from its own seeded source, so the recorded MAEs
are reproducible.  Expected: every naive arm fails identically; every
guarded arm is certified; the staircase (ℓ1-optimal) adds the least
absolute noise, the (ε, δ) Gaussian the most at these parameters.
"""

import numpy as np

from repro.analysis import render_table
from repro.mechanisms import SensorSpec, make_mechanism
from repro.rng import (
    FxpGaussianRng,
    FxpDatapath,
    FxpLaplaceRng,
    FxpStaircaseRng,
    SplitStreamSource,
    StaircaseParams,
    gaussian_sigma,
)

from conftest import record_experiment

D, EPS = 8.0, 0.5
SENSOR = SensorSpec(0.0, D)
CFG = FxpDatapath(input_bits=13, output_bits=20, delta=D / 64)


def _generators():
    return {
        "laplace": FxpLaplaceRng(CFG, D / EPS, source=SplitStreamSource(1)),
        "staircase": FxpStaircaseRng(
            CFG,
            StaircaseParams(sensitivity=D, epsilon=EPS),
            source=SplitStreamSource(2),
        ),
        "gaussian": FxpGaussianRng(
            CFG, sigma=gaussian_sigma(D, EPS, 1e-5), source=SplitStreamSource(3)
        ),
    }


def bench_ablation_noise_distributions(benchmark):
    def run():
        rows = []
        x = np.full(20000, D / 2)
        for name, gen in _generators().items():
            naive = make_mechanism("baseline", SENSOR, EPS, noise_rng=gen)
            guarded = make_mechanism("thresholding", SENSOR, EPS, noise_rng=gen)
            naive_rep = naive.ldp_report(epsilon_target=1e9)
            guard_rep = guarded.ldp_report()
            mae = float(np.abs(guarded.privatize(x) - D / 2).mean())
            rows.append(
                [
                    name,
                    "INF" if not naive_rep.is_finite else f"{naive_rep.worst_loss:.3g}",
                    f"{guarded.threshold:.2f}",
                    f"{guard_rep.worst_loss:.4f}",
                    "Y" if guard_rep.satisfied else "N",
                    f"{mae:.3f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    maes = {r[0]: float(r[5]) for r in rows}
    ok = (
        all(r[1] == "INF" for r in rows)
        and all(r[4] == "Y" for r in rows)
        and maes["staircase"] <= maes["laplace"] + 0.05
        and maes["gaussian"] > maes["laplace"]
    )
    text = "\n".join(
        [
            render_table(
                [
                    "distribution",
                    "naive worst loss",
                    "calibrated n_th2",
                    "guarded worst loss",
                    "LDP?",
                    "per-sample MAE",
                ],
                rows,
                title=(
                    f"Ablation: DP noise distributions on fixed point "
                    f"(d={D}, eps={EPS}; Gaussian pays delta=1e-5 extra)"
                ),
            ),
            "",
            "expected: every naive arm has infinite loss; every guarded arm "
            "certifies; staircase <= laplace < gaussian on absolute noise — "
            + ("CONFIRMED" if ok else "MISMATCH"),
        ]
    )
    record_experiment("ablation_noise_distributions", text)
    assert ok
