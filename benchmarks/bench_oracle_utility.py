"""Frequency-oracle utility bench — RR vs OUE vs OLH across ε.

Runs the three categorical oracle arms over the same skewed population
at each ε and reports the utility-vs-ε table the oracle-selection
guidance in docs/api.md cites: closed-form rare-item standard error,
empirical mean absolute error, and — the ULP axis — per-report bits on
the wire (k-RR ships ``ceil(log2 d)`` bits, OUE ships ``d``, OLH ships
``ceil(log2 g)`` with ``g ≈ e^ε + 1``).

It also *asserts* the statistical contract: over repeated trials each
arm's estimate of the tracked category must be unbiased, with the mean
estimate within 3σ of the truth (σ from the closed-form variance of the
mean of T trials — ``sqrt(Var[f̂]/T)``), and the empirical per-trial
variance must agree with the closed form within a generous Monte Carlo
band.  A bias or a variance-formula error fails the bench, not just a
number in a table.

An OLH decode section times ``support_counts`` at ``d = 256`` — the
server's O(n·d) support-counting pass — as µs per 1,000 reports (median
of 5 repeats with the garbage collector paused, plus the min/max
spread), and asserts the kernel's counts equal the per-candidate hash
definition on the same reports.  It does both at ε = 0.5, 2 and 4, so
``g`` = 3, 8 and 56: an odd hash range, a power of two and an even
non-power, which take different branches of NumPy's multiply-shift
division.  An ``olh_decode_epochs`` row times the multi-epoch decode a
fleet shard runs — 22,500 users, 8 epochs with 10% dropout each, g = 8,
d = 256 — as one ``support_counts_epochs`` sweep against the 8
per-epoch ``support_counts`` calls it replaces (same repeats, GC paused)
and asserts the two give the same counts.

Machine-readable results land in ``BENCH_oracles.json`` at the repo
root.  Standalone script (not pytest-benchmark): CI runs ``--quick`` as
the oracle-smoke job and uploads the JSON as an artifact.  A ``--quick``
run writes ``BENCH_oracles.quick.json`` (git-ignored) instead, so it
never overwrites the committed full run.
"""

import argparse
import gc
import json
import math
import pathlib
import statistics
import sys
import time

import numpy as np

from repro.mechanisms import make_oracle
from repro.queries import estimate_frequencies, frequency_variance, ideal_oracle_variance
from repro.rng import SplitStreamSource, audited_generator

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS_JSON = REPO_ROOT / "BENCH_oracles.json"
QUICK_RESULTS_JSON = REPO_ROOT / "BENCH_oracles.quick.json"

SEED = 20260808
ARMS = ("krr", "oue", "olh")
ARM_LABELS = {"krr": "k-RR", "oue": "OUE", "olh": "OLH"}
#: Unbiasedness gate: |mean(f_hat) - f| <= 3 sigma of the trial mean.
BIAS_SIGMAS = 3.0
#: Empirical/closed-form variance ratio band (Monte Carlo tolerance).
VAR_BAND = (0.4, 2.5)
#: OLH decode section: domain size, ε values (g = 3, 8, 56), repeats.
DECODE_D = 256
DECODE_EPSILONS = (0.5, 2.0, 4.0)
DECODE_REPEATS = 5
#: Multi-epoch decode row: one fleet shard's users, epochs and dropout.
EPOCHS_USERS = 22_500
EPOCHS_E = 8
EPOCHS_EPSILON = 2.0  # g = 8
EPOCHS_DROPOUT = 0.1


def _population(rng, d, n):
    """Fixed skewed population: one heavy category, uniform tail."""
    p = np.r_[0.3, np.full(d - 1, 0.7 / (d - 1))]
    return rng.choice(d, size=n, p=p)


def _run_arm(kind, d, epsilon, values, trials, seed0):
    """T trials of one arm on one dataset; per-trial tracked estimates."""
    n = values.size
    f_true = np.bincount(values, minlength=d) / n
    tracked = int(np.argmax(f_true))  # the heavy category
    estimates, maes = [], []
    t0 = time.perf_counter()
    for t in range(trials):
        arm = make_oracle(kind, d, epsilon, source=SplitStreamSource(seed0 + t))
        est = estimate_frequencies(arm, arm.report(values))
        estimates.append(float(est.frequencies[tracked]))
        maes.append(float(np.abs(est.frequencies - f_true).mean()))
    elapsed = time.perf_counter() - t0
    arm = make_oracle(kind, d, epsilon, source=SplitStreamSource(seed0))
    p, q = arm.estimator_params()
    closed_var = frequency_variance(n, p, q, float(f_true[tracked]))
    rare_sigma = math.sqrt(frequency_variance(n, p, q, 0.0))
    mean_est = float(np.mean(estimates))
    bias = mean_est - float(f_true[tracked])
    bias_sigma = math.sqrt(closed_var / trials)
    emp_var = float(np.var(estimates, ddof=1)) if trials > 1 else float("nan")
    return {
        "arm": ARM_LABELS[kind],
        "kind": kind,
        "epsilon": epsilon,
        "exact_epsilon": round(arm.exact_epsilon(), 6),
        "report_bits": int(arm.report_bits),
        "tracked_f": round(float(f_true[tracked]), 6),
        "mean_estimate": round(mean_est, 6),
        "bias": round(bias, 6),
        "bias_z": round(bias / bias_sigma, 3),
        "closed_form_var": closed_var,
        "empirical_var": emp_var,
        "var_ratio": round(emp_var / closed_var, 3),
        "rare_sigma": round(rare_sigma, 6),
        "ideal_rare_sigma": round(
            math.sqrt(ideal_oracle_variance(n, epsilon)), 6
        ),
        "mae": round(float(np.mean(maes)), 6),
        "seconds": round(elapsed, 3),
        "unbiased_3sigma": bool(abs(bias) <= BIAS_SIGMAS * bias_sigma),
        "var_in_band": bool(VAR_BAND[0] <= emp_var / closed_var <= VAR_BAND[1]),
    }


def _timed(call):
    """``(sorted seconds of DECODE_REPEATS calls, last result)``, GC paused."""
    times = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(DECODE_REPEATS):
            t0 = time.perf_counter()
            result = call()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return sorted(times), result


def _olh_decode(n, epsilon):
    """Time OLH ``support_counts`` at d = 256; check it against the definition."""
    values = _population(audited_generator(SEED + 1), DECODE_D, n)
    arm = make_oracle("olh", DECODE_D, epsilon, source=SplitStreamSource(SEED + 1))
    reports = arm.report(values)
    idx = np.arange(n, dtype=np.int64)
    reference = np.array(
        [
            np.count_nonzero(arm.hash_values(np.full(n, v), idx) == reports)
            for v in range(DECODE_D)
        ],
        dtype=np.int64,
    )
    times, counts = _timed(lambda: arm.support_counts(reports))
    per_kreport = [t / n * 1e9 for t in times]  # µs per 1,000 reports
    return {
        "categories": DECODE_D,
        "epsilon": epsilon,
        "g": arm.g,
        "reports": n,
        "repeats": DECODE_REPEATS,
        "support_counts_us_per_kreport": round(statistics.median(per_kreport), 1),
        "support_counts_us_per_kreport_spread": [
            round(per_kreport[0], 1), round(per_kreport[-1], 1)
        ],
        "equals_reference": bool(np.array_equal(counts, reference)),
    }


def _olh_decode_epochs():
    """Time one shard's multi-epoch OLH decode against per-epoch calls."""
    gen = audited_generator(SEED + 2)
    arm = make_oracle(
        "olh", DECODE_D, EPOCHS_EPSILON, source=SplitStreamSource(SEED + 2)
    )
    reporting = gen.random((EPOCHS_E, EPOCHS_USERS)) >= EPOCHS_DROPOUT
    values = _population(gen, DECODE_D, EPOCHS_USERS)
    users = np.arange(EPOCHS_USERS, dtype=np.int64)
    buckets = np.full((EPOCHS_E, EPOCHS_USERS), arm.g, dtype=np.min_scalar_type(arm.g))
    epochs = []
    for row, mask in zip(buckets, reporting):
        reports = arm.report(values[mask], user_offset=users[mask])
        row[mask] = reports
        epochs.append((reports, users[mask]))

    sweep_s, sweep = _timed(lambda: arm.support_counts_epochs(buckets))
    per_epoch_s, per_epoch = _timed(
        lambda: np.stack([arm.support_counts(r, user_offset=u) for r, u in epochs])
    )

    result = {
        "categories": DECODE_D,
        "epsilon": EPOCHS_EPSILON,
        "g": arm.g,
        "users": EPOCHS_USERS,
        "epochs": EPOCHS_E,
        "dropout": EPOCHS_DROPOUT,
        "repeats": DECODE_REPEATS,
        "equals_reference": bool(np.array_equal(sweep, per_epoch)),
    }
    for name, times in (("sweep", sweep_s), ("per_epoch", per_epoch_s)):
        result[f"{name}_ms"] = round(statistics.median(times) * 1e3, 2)
        result[f"{name}_ms_spread"] = [round(times[0] * 1e3, 2), round(times[-1] * 1e3, 2)]
    return result


def _render(rows):
    head = (
        f"{'eps':>4} {'arm':<5} {'exact eps':>9} {'bits':>5} "
        f"{'rare sigma':>10} {'MAE':>8} {'bias z':>7} {'var ratio':>9}"
    )
    print(head)
    print("-" * len(head))
    for r in rows:
        print(
            f"{r['epsilon']:>4g} {r['arm']:<5} {r['exact_epsilon']:>9.4f} "
            f"{r['report_bits']:>5d} {r['rare_sigma']:>10.4f} "
            f"{r['mae']:>8.4f} {r['bias_z']:>7.2f} {r['var_ratio']:>9.2f}"
        )


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--categories", type=int, default=32)
    parser.add_argument("--devices", type=int, default=20_000)
    parser.add_argument("--trials", type=int, default=24)
    parser.add_argument(
        "--epsilons", type=float, nargs="+", default=[0.5, 1.0, 2.0, 4.0]
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small domain/population, fewer trials",
    )
    args = parser.parse_args(argv)
    args.output = QUICK_RESULTS_JSON if args.quick else RESULTS_JSON
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.quick:
        d, n, trials, epsilons = 8, 4_000, 10, [1.0, 2.0]
    else:
        d, n, trials, epsilons = (
            args.categories, args.devices, args.trials, args.epsilons
        )

    values = _population(audited_generator(SEED), d, n)
    print(f"population: d={d} n={n} trials={trials} epsilons={epsilons}")

    rows = []
    for epsilon in epsilons:
        for kind in ARMS:
            rows.append(
                _run_arm(kind, d, epsilon, values, trials, SEED + len(rows) * 1000)
            )
    _render(rows)

    decode = [_olh_decode(n, epsilon) for epsilon in DECODE_EPSILONS]
    for row in decode:
        print(
            f"OLH decode d={row['categories']} g={row['g']} n={n}: "
            f"{row['support_counts_us_per_kreport']} us/kreport "
            f"(spread {row['support_counts_us_per_kreport_spread']}), "
            f"equals reference: {row['equals_reference']}"
        )
    epochs = _olh_decode_epochs()
    print(
        f"OLH decode of {epochs['epochs']} epochs x {epochs['users']} users "
        f"d={epochs['categories']} g={epochs['g']}: one sweep "
        f"{epochs['sweep_ms']} ms (spread {epochs['sweep_ms_spread']}), "
        f"per-epoch calls {epochs['per_epoch_ms']} ms "
        f"(spread {epochs['per_epoch_ms_spread']}), "
        f"equals reference: {epochs['equals_reference']}"
    )

    failures = [
        f"{r['arm']} @ eps={r['epsilon']}: "
        + ("biased" if not r["unbiased_3sigma"] else "variance off")
        for r in rows
        if not (r["unbiased_3sigma"] and r["var_in_band"])
    ]
    failures += [
        f"OLH support_counts differs from the per-candidate hash at g={row['g']}"
        for row in decode
        if not row["equals_reference"]
    ]
    if not epochs["equals_reference"]:
        failures.append(
            "OLH support_counts_epochs differs from the per-epoch support_counts"
        )

    payload = {
        "schema": 2,
        "categories": d,
        "devices": n,
        "trials": trials,
        "epsilons": epsilons,
        "bias_sigmas": BIAS_SIGMAS,
        "var_band": list(VAR_BAND),
        "quick": args.quick,
        "rows": rows,
        "olh_decode": decode,
        "olh_decode_epochs": epochs,
        "failures": failures,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output}")

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"all arms unbiased within {BIAS_SIGMAS} sigma; "
          f"variances within {VAR_BAND}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
