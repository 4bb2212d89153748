"""Gaussian noise on fixed point (the (ε, δ)-DP alternative).

Section III-A4 lists the Gaussian alongside Laplace and staircase as a
DP-guaranteeing distribution that finite-precision hardware cannot
realize exactly.  The Gaussian mechanism provides (ε, δ)-DP — not pure
ε-DP — with ``σ = d·sqrt(2·ln(1.25/δ))/ε`` (the classic calibration for
ε ≤ 1), so it is the right comparison point when a small failure
probability δ is acceptable.

The probit (inverse normal CDF) has no closed form; hardware uses a
rational approximation, which we model with Acklam's algorithm evaluated
in float64 — the quantization effects under study come from the ``Bu``-bit
input and ``Δ`` output grids, exactly as for Laplace.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .inversion import FxpDatapath, FxpInversionRng
from .urng import UniformCodeSource

__all__ = ["FxpGaussianRng", "gaussian_sigma", "probit"]


def gaussian_sigma(d: float, epsilon: float, delta: float) -> float:
    """Classic Gaussian-mechanism calibration ``σ = d·√(2·ln(1.25/δ))/ε``."""
    if d <= 0 or epsilon <= 0:
        raise ConfigurationError("d and epsilon must be positive")
    if not 0.0 < delta < 1.0:
        raise ConfigurationError("delta must be in (0, 1)")
    return d * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


# Acklam's rational approximation of the standard normal quantile.
_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425


def probit(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile via Acklam's rational approximation.

    Accurate to ~1.15e-9 relative over (0, 1) — far below the fixed-point
    grids under study, and representative of a hardware rational unit.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ConfigurationError("probit arguments must be in (0, 1)")
    out = np.empty_like(p)
    low = p < _P_LOW
    high = p > 1.0 - _P_LOW
    mid = ~(low | high)
    if np.any(mid):
        q = p[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r) + 1.0
        out[mid] = q * num / den
    if np.any(low):
        q = np.sqrt(-2.0 * np.log(p[low]))
        num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        den = ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q) + 1.0
        out[low] = num / den
    if np.any(high):
        q = np.sqrt(-2.0 * np.log(1.0 - p[high]))
        num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
        den = ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q) + 1.0
        out[high] = -num / den
    return out


class FxpGaussianRng(FxpInversionRng):
    """Fixed-point Gaussian noise generator (scale ``sigma``)."""

    def __init__(
        self,
        datapath: FxpDatapath,
        sigma: float,
        source: Optional[UniformCodeSource] = None,
        kernel: str = "auto",
    ):
        if sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        super().__init__(datapath, source=source, kernel=kernel)
        self.sigma = sigma

    def _parameters(self) -> Tuple:
        return (self.sigma,)

    def magnitude_from_uniform(self, u: np.ndarray) -> np.ndarray:
        # dplint: allow[DPL002] -- float64 probit models the hardware's
        # rational approximation (module docstring); the quantization
        # under study is the Bu-bit input / Δ output grid around it.
        u = np.minimum(np.asarray(u, dtype=float), self._u_cap())
        # Magnitude quantile: |N(0, σ)| has CDF 2Φ(m/σ) - 1.
        return self.sigma * probit((1.0 + u) / 2.0)

    @property
    def max_magnitude_real(self) -> float:
        return float(
            self.sigma * probit(np.asarray([(1.0 + self._u_cap()) / 2.0]))[0]
        )
