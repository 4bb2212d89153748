"""Ablation — closed-form thresholds (eqs. 13/15) vs exact calibration.

DESIGN.md §5's headline design choice: DP-Box calibrates its guard
thresholds by exact search rather than by the paper's closed forms.  This
ablation quantifies why, per loss multiple ``n``:

* resampling: the closed form is *sound but conservative* — exact
  calibration recovers a wider window (fewer redraws) at the same bound;
* thresholding: the closed form only constrains the boundary atoms; the
  exact analyzer shows its threshold admits interior holes (infinite
  loss) at evaluation resolutions, while exact calibration stays certified.
"""

import math

from repro.analysis import render_table
from repro.privacy import (
    calibrate_threshold_exact,
    exact_worst_loss_at_threshold,
    input_grid_codes,
    paper_resampling_threshold,
    paper_thresholding_threshold,
)
from repro.rng import FxpDatapath, FxpLaplaceRng

from conftest import record_experiment

D, EPS, BU = 10.0, 0.5, 17
DELTA = 10 / 32


def bench_ablation_threshold_policies(benchmark):
    datapath = FxpDatapath(input_bits=BU, output_bits=14, delta=DELTA)
    noise = FxpLaplaceRng(datapath, D / EPS).exact_pmf()
    codes = input_grid_codes(0.0, D, DELTA, n_points=5)

    def run():
        rows = []
        for n in (1.5, 2.0, 3.0):
            t_rs_paper = paper_resampling_threshold(D, DELTA, EPS, BU, n)
            t_rs_exact = calibrate_threshold_exact(
                noise, codes, n * EPS, mode="resample"
            )
            l_rs_paper = exact_worst_loss_at_threshold(
                noise, codes, t_rs_paper, "resample"
            )
            t_th_paper = paper_thresholding_threshold(D, DELTA, EPS, BU, n)
            l_th_paper = exact_worst_loss_at_threshold(
                noise, codes, t_th_paper, "threshold"
            )
            t_th_exact = calibrate_threshold_exact(
                noise, codes, n * EPS, mode="threshold"
            )
            rows.append(
                [
                    f"{n:g}",
                    f"{t_rs_paper:.1f} (loss {l_rs_paper:.3f})",
                    f"{t_rs_exact:.1f}",
                    f"{t_th_paper:.1f} (loss "
                    f"{'INF' if math.isinf(l_th_paper) else f'{l_th_paper:.3f}'})",
                    f"{t_th_exact:.1f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = "\n".join(
        [
            render_table(
                [
                    "n (target n·ε)",
                    "resample: eq.13",
                    "resample: exact",
                    "threshold: eq.15",
                    "threshold: exact",
                ],
                rows,
                title=(
                    f"Ablation: threshold policies (d={D}, Δ={DELTA:g}, ε={EPS}, "
                    f"Bu={BU}); '(loss …)' = exactly computed worst loss at that "
                    "threshold"
                ),
            ),
            "",
            "expected: eq.13 sound-but-conservative (exact ≥ eq.13); eq.15 "
            "thresholds admit interior holes (INF) at this resolution; exact "
            "calibration always certified — CONFIRMED"
            if all("INF" in r[3] for r in rows)
            else "MISMATCH",
        ]
    )
    record_experiment("ablation_threshold_policies", text)
    for r in rows:
        assert float(r[2]) >= float(r[1].split()[0])  # exact ≥ paper (resample)
        assert "INF" in r[3]  # the documented eq.-15 delta
