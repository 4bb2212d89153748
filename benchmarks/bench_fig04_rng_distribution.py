"""Fig. 4 — ideal Laplace vs fixed-point RNG distribution.

Reproduces the paper's running example (Lap(20), Bu=17, By=12, Δ=10/2⁵):
(a) near the mode the FxP RNG tracks the ideal density; (b) in the tail
the FxP RNG shows quantized probability levels (multiples of 2^-(Bu+1)),
zero-probability holes, and a hard support bound at L = λ·Bu·ln2 — the
two nonidealities behind the privacy failure.
"""

import numpy as np

from repro.analysis import render_series
from repro.rng import FxpDatapath, FxpLaplaceRng

from conftest import record_experiment

CFG = FxpDatapath(input_bits=17, output_bits=12, delta=10 / 2**5)
LAM = 20.0


def bench_fig4_exact_pmf(benchmark):
    rng = FxpLaplaceRng(CFG, LAM)
    # Timed: the full enumeration through the live datapath (a fresh
    # generator each round, so no cached table or PMF is reused).
    pmf = benchmark(lambda: FxpLaplaceRng(CFG, LAM, kernel="live").exact_pmf())
    ideal = rng.ideal_bin_probs()

    # (a) central region: FxP matches ideal.
    center_ks = np.arange(-5, 6)
    fxp_c = [pmf.prob_at(int(k)) for k in center_ks]
    ideal_c = [ideal.prob_at(int(k)) for k in center_ks]

    # (b) tail zoom: quantized levels and holes.
    tail_ks = np.arange(rng.top_code - 30, rng.top_code + 1)
    fxp_t = [pmf.prob_at(int(k)) for k in tail_ks]
    ideal_t = [ideal.prob_at(int(k)) for k in tail_ks]
    unit = 2.0 ** -(CFG.input_bits + 1)
    holes = int(np.sum(np.array(fxp_t) == 0.0))

    text = []
    text.append("Fig. 4(a) — center of the distribution (probability per bin):")
    text.append(
        render_series(
            "noise value",
            [f"{k * CFG.delta:+.3f}" for k in center_ks],
            [("ideal Lap(20)", ideal_c), ("FxP RNG", fxp_c)],
        )
    )
    text.append("")
    text.append("Fig. 4(b) — tail zoom (last 31 bins before the support bound):")
    text.append(
        render_series(
            "noise value",
            [f"{k * CFG.delta:+.2f}" for k in tail_ks],
            [
                ("ideal", ideal_t),
                ("FxP (multiples of 2^-18)", [p / unit for p in fxp_t]),
            ],
        )
    )
    text.append("")
    text.append(
        f"support bound L = lam*Bu*ln2 = {rng.max_magnitude_real:.2f} "
        f"(code {rng.top_code}); zero-probability holes in this window: {holes}"
    )
    text.append(
        "paper shape check: center matches ideal; tail shows discrete levels, "
        f"holes ({holes} > 0) and bounded support — REPRODUCED"
    )
    record_experiment("fig04_rng_distribution", "\n".join(text))

    assert holes > 0
    assert pmf.total_variation(ideal) < 0.01
