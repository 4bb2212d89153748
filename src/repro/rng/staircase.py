"""Staircase noise distribution (Geng & Viswanath) on fixed point.

The staircase mechanism is the ℓ1-optimal ε-DP additive noise (the paper
cites it alongside Laplace and Gaussian in Sections II-A and III-A4).
Its density is piecewise constant over rungs of width equal to the
sensitivity ``d``::

    f(x) = a(γ)·e^{-kε}           for |x| ∈ [k·d, (k+γ)·d)
    f(x) = a(γ)·e^{-(k+1)ε}       for |x| ∈ [(k+γ)·d, (k+1)·d)
    a(γ) = (1-e^{-ε}) / (2d·(γ + e^{-ε}(1-γ)))

with the ℓ1-optimal rung split ``γ* = 1/(1 + e^{ε/2})``.

The inverse CDF is closed-form (a geometric rung pick plus a linear
position within the rung), so the hardware realization is the same
log + compare + multiply structure as the Laplace unit; on fixed point it
exhibits the same bounded-support/hole pathology, and the same guards
restore LDP — our exact analyzer proves both (see the tests and the
noise-distribution ablation bench).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .inversion import FxpDatapath, FxpInversionRng
from .urng import UniformCodeSource

__all__ = ["StaircaseParams", "FxpStaircaseRng", "optimal_gamma"]


def optimal_gamma(epsilon: float) -> float:
    """The ℓ1-optimal rung split ``γ* = 1/(1 + e^{ε/2})``."""
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    return 1.0 / (1.0 + math.exp(epsilon / 2.0))


@dataclasses.dataclass(frozen=True)
class StaircaseParams:
    """Continuous staircase distribution parameters."""

    sensitivity: float  # d — the rung width
    epsilon: float
    gamma: Optional[float] = None  # defaults to the optimal split

    def __post_init__(self) -> None:
        if self.sensitivity <= 0 or self.epsilon <= 0:
            raise ConfigurationError("sensitivity and epsilon must be positive")
        g = self.gamma if self.gamma is not None else optimal_gamma(self.epsilon)
        if not 0.0 < g < 1.0:
            raise ConfigurationError("gamma must be in (0, 1)")
        object.__setattr__(self, "gamma", g)

    @property
    def b(self) -> float:
        """Per-rung decay ``e^{-ε}``."""
        return math.exp(-self.epsilon)

    @property
    def density_scale(self) -> float:
        """The ``a(γ)`` normalization constant."""
        g = self.gamma
        return (1.0 - self.b) / (
            2.0 * self.sensitivity * (g + self.b * (1.0 - g))
        )

    # ------------------------------------------------------------------
    def inverse_half_cdf(self, u: np.ndarray) -> np.ndarray:
        """Magnitude quantile function for ``u`` in (0, 1].

        The magnitude mass of rung ``k`` is ``(1-b)·b^k``; within the
        rung, the inner ``γ·d`` and outer ``(1-γ)·d`` pieces split it in
        proportion ``γ : b(1-γ)``.
        """
        # dplint: allow[DPL002] -- ideal-model quantile: StaircaseParams is
        # the continuous staircase reference; the Bu-bit realization in
        # FxpStaircaseRng is certified via exact_pmf enumeration.
        u = np.asarray(u, dtype=float)
        if np.any((u <= 0) | (u > 1)):
            raise ConfigurationError("uniforms must be in (0, 1]")
        # dplint: allow[DPL002] -- same ideal-model quantile (see above).
        b, g, d = self.b, float(self.gamma), self.sensitivity
        # Rung index: 1 - b^k <= u  =>  k = floor(ln(1-u)/ln b); clamp the
        # u -> 1 endpoint to the last fully-representable rung.
        one_minus = np.maximum(1.0 - u, np.finfo(float).tiny)
        # dplint: allow[DPL002] -- same ideal-model quantile (see above).
        k = np.floor(np.log(one_minus) / math.log(b))
        k = np.maximum(k, 0.0)
        # dplint: allow[DPL002] -- same ideal-model quantile (see above).
        residual = u - (1.0 - np.power(b, k))  # in [0, (1-b)·b^k)
        # dplint: allow[DPL002] -- same ideal-model quantile (see above).
        rung_mass = (1.0 - b) * np.power(b, k)
        inner_frac = g / (g + b * (1.0 - g))
        inner_mass = rung_mass * inner_frac
        inside = residual < inner_mass
        with np.errstate(divide="ignore", invalid="ignore"):
            pos_inner = np.where(
                inner_mass > 0, residual / np.where(inner_mass > 0, inner_mass, 1), 0.0
            )
            outer_mass = rung_mass - inner_mass
            pos_outer = np.where(
                outer_mass > 0,
                (residual - inner_mass) / np.where(outer_mass > 0, outer_mass, 1),
                0.0,
            )
        m = np.where(
            inside,
            k * d + pos_inner * g * d,
            k * d + g * d + pos_outer * (1.0 - g) * d,
        )
        return m


class FxpStaircaseRng(FxpInversionRng):
    """Fixed-point staircase noise generator."""

    def __init__(
        self,
        datapath: FxpDatapath,
        params: StaircaseParams,
        source: Optional[UniformCodeSource] = None,
        kernel: str = "auto",
    ):
        super().__init__(datapath, source=source, kernel=kernel)
        self.params = params

    def _parameters(self) -> Tuple:
        return (self.params,)

    def magnitude_from_uniform(self, u: np.ndarray) -> np.ndarray:
        return self.params.inverse_half_cdf(np.minimum(u, self._u_cap()))

    @property
    def max_magnitude_real(self) -> float:
        """Magnitude of the clamped all-ones code: rung ``~(Bu+1)·ln2/ε``."""
        return float(
            self.params.inverse_half_cdf(np.asarray([self._u_cap()]))[0]
        )
