"""Built-in self-test (BIST) for the DP-Box privacy datapath.

The paper's case for hardware support is *integrity*: "implementing
privacy in custom hardware is the only way to guarantee that it is not
tampered with" (Section III-D).  A privacy block that silently emits
biased or stuck noise is worse than none — the host keeps publishing
"noised" values that no longer hide anything.  Real secure peripherals
pair that argument with a power-on self-test; this module provides one:

* **URNG health** — monobit (frequency) test, runs test, and a per-bit
  bias scan over the raw Tausworthe output: catches stuck-at faults,
  missing entropy, and correlated bits.
* **Logarithm unit check** — CORDIC spot vectors against exact ``ln``.
* **Noise-shape check** — a chi-square test of sampled noise against the
  *exact* PMF of the configured generator: catches datapath faults that
  leave the URNG healthy but corrupt the transform.

``run_selftest`` aggregates everything into a :class:`SelfTestReport`.
The fault-injection tests drive each check with a sabotaged component
and assert detection.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional

import numpy as np

from ..errors import ConfigurationError
from ..rng.cordic import CordicLn
from ..rng.inversion import FxpDatapath, FxpInversionRng
from ..rng.laplace_fxp import FxpLaplaceRng
from ..rng.urng import UniformCodeSource

__all__ = [
    "CheckResult",
    "SelfTestReport",
    "monobit_check",
    "runs_check",
    "bit_bias_scan",
    "cordic_check",
    "noise_shape_check",
    "run_selftest",
]

# Standard-normal two-sided 1e-4 quantile: generous enough that a healthy
# generator essentially never fails, tight enough to catch real faults.
_Z_LIMIT = 3.89


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """Outcome of one self-test check."""

    name: str
    passed: bool
    statistic: float
    limit: float
    detail: str = ""

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: stat={self.statistic:.3g} limit={self.limit:.3g} {self.detail}"


@dataclasses.dataclass(frozen=True)
class SelfTestReport:
    """All checks plus the aggregate verdict."""

    checks: List[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def describe(self) -> str:
        lines = [c.describe() for c in self.checks]
        lines.append(f"=> self-test {'PASSED' if self.passed else 'FAILED'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# URNG health
# ---------------------------------------------------------------------------
def _bits_from_source(source: UniformCodeSource, n_bits: int, width: int = 16) -> np.ndarray:
    codes = source.uniform_codes(-(-n_bits // width), width) - 1
    bits = ((codes[:, None] >> np.arange(width)) & 1).reshape(-1)
    return bits[:n_bits].astype(np.int64)


def monobit_check(source: UniformCodeSource, n_bits: int = 65536) -> CheckResult:
    """NIST-style frequency test: ones fraction within sampling error."""
    if n_bits < 1024:
        raise ConfigurationError("need at least 1024 bits")
    bits = _bits_from_source(source, n_bits)
    z = abs(bits.sum() - n_bits / 2) / math.sqrt(n_bits / 4)
    return CheckResult(
        name="urng-monobit",
        passed=z <= _Z_LIMIT,
        statistic=float(z),
        limit=_Z_LIMIT,
        detail=f"ones={bits.mean():.4f}",
    )


def runs_check(source: UniformCodeSource, n_bits: int = 65536) -> CheckResult:
    """Wald–Wolfowitz runs test: transition count near n/2."""
    if n_bits < 1024:
        raise ConfigurationError("need at least 1024 bits")
    bits = _bits_from_source(source, n_bits)
    pi = bits.mean()
    if pi in (0.0, 1.0):
        return CheckResult("urng-runs", False, float("inf"), _Z_LIMIT, "constant")
    runs = 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))
    expected = 2 * n_bits * pi * (1 - pi)
    z = abs(runs - expected) / (2 * math.sqrt(n_bits) * pi * (1 - pi))
    return CheckResult(
        name="urng-runs",
        passed=z <= _Z_LIMIT,
        statistic=float(z),
        limit=_Z_LIMIT,
        detail=f"runs={runs}",
    )


def bit_bias_scan(
    source: UniformCodeSource, width: int = 16, n_codes: int = 8192
) -> CheckResult:
    """Per-bit-position bias: catches a stuck or weakly-toggling bit line."""
    codes = source.uniform_codes(n_codes, width) - 1
    positions = ((codes[:, None] >> np.arange(width)) & 1).astype(float)
    means = positions.mean(axis=0)
    z = np.abs(means - 0.5) / math.sqrt(0.25 / n_codes)
    worst = int(np.argmax(z))
    return CheckResult(
        name="urng-bit-bias",
        passed=float(z.max()) <= _Z_LIMIT + 1.0,  # Bonferroni slack over positions
        statistic=float(z.max()),
        limit=_Z_LIMIT + 1.0,
        detail=f"worst bit {worst} mean={means[worst]:.4f}",
    )


# ---------------------------------------------------------------------------
# Datapath checks
# ---------------------------------------------------------------------------
def cordic_check(
    unit: Optional[CordicLn] = None, input_bits: int = 12, tolerance: float = 1e-4
) -> CheckResult:
    """Spot-check the log unit against exact ``ln`` over a code sweep."""
    unit = unit or CordicLn(frac_bits=24, n_iterations=24)
    err = unit.max_abs_error(input_bits, sample_every=7)
    return CheckResult(
        name="cordic-ln",
        passed=err <= tolerance,
        statistic=float(err),
        limit=tolerance,
    )


def noise_shape_check(
    rng: FxpInversionRng,
    n_samples: int = 20000,
    significance_chi2_per_dof: float = 1.6,
) -> CheckResult:
    """Chi-square of sampled noise vs the generator's exact PMF.

    Bins with expected count < 8 are pooled into their neighbour so the
    chi-square approximation holds.
    """
    if n_samples < 2000:
        raise ConfigurationError("need at least 2000 samples")
    pmf = rng.exact_pmf()
    samples = rng.sample_codes(n_samples)
    # Samples outside the reference support are themselves a fault
    # symptom; fold them into the edge bins where the chi-square will
    # flag the excess.
    idx = np.clip(samples - pmf.min_k, 0, pmf.probs.size - 1)
    counts = np.bincount(idx, minlength=pmf.probs.size).astype(float)
    expected = pmf.probs * n_samples
    # Pool sparse bins left to right.
    pooled_obs: List[float] = []
    pooled_exp: List[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 8.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and pooled_exp:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    obs = np.asarray(pooled_obs)
    exp = np.asarray(pooled_exp)
    dof = max(obs.size - 1, 1)
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    stat = chi2 / dof
    return CheckResult(
        name="noise-shape",
        passed=stat <= significance_chi2_per_dof,
        statistic=stat,
        limit=significance_chi2_per_dof,
        detail=f"chi2={chi2:.1f} dof={dof}",
    )


# ---------------------------------------------------------------------------
# Aggregate
# ---------------------------------------------------------------------------
def run_selftest(
    source: UniformCodeSource,
    log_unit: Optional[CordicLn] = None,
) -> SelfTestReport:
    """Power-on self-test: URNG health + log unit + noise shape."""
    checks = [
        monobit_check(source),
        runs_check(source),
        bit_bias_scan(source),
        cordic_check(log_unit),
    ]
    datapath = FxpDatapath(input_bits=12, output_bits=16, delta=1 / 16)
    checks.append(noise_shape_check(FxpLaplaceRng(datapath, 2.0, source=source)))
    return SelfTestReport(checks=checks)
