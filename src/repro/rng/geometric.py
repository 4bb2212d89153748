"""Two-sided geometric (discrete Laplace) noise on fixed point.

The discrete-DP literature's answer to the paper's floating/fixed-point
problem is to make the *distribution itself* discrete: two-sided
geometric noise ``Pr[n = k·Δ] ∝ α^{|k|}`` with ``α = e^{-ε·Δ/d}`` is
exactly ε-LDP on the integer grid — no continuous ideal to approximate.

This module implements it and makes a sharper version of the paper's
Section III-A4 point: discreteness alone does not save a *finite-entropy*
implementation.  Driven by a ``Bu``-bit URNG through its inverse CDF, the
generator's support is again bounded (the deepest reachable rung is
``~Bu·ln2·d/(ε·Δ)`` steps), so the naive additive mechanism still has
revealing outputs and still needs the paper's guards — all of which our
exact analyzer shows directly (see the tests).

:class:`IdealTwoSidedGeometric` provides the analytic distribution (and a
proof-by-computation that the *ideal* is exactly ε-LDP);
:class:`FxpGeometricRng` is the ``Bu``-bit hardware realization on the
common inversion datapath.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from .inversion import FxpDatapath, FxpInversionRng
from .pmf import DiscretePMF
from .urng import UniformCodeSource

__all__ = ["IdealTwoSidedGeometric", "FxpGeometricRng", "geometric_alpha"]


def geometric_alpha(d: float, epsilon: float, delta: float) -> float:
    """Decay per grid step for ε-LDP at sensitivity ``d``: ``e^{-ε·Δ/d}``.

    Shifting the input by the full sensitivity (``d/Δ`` steps) changes
    every probability by exactly ``α^{d/Δ} = e^{-ε}``.
    """
    if d <= 0 or epsilon <= 0 or delta <= 0:
        raise ConfigurationError("d, epsilon and delta must be positive")
    return math.exp(-epsilon * delta / d)


@dataclasses.dataclass(frozen=True)
class IdealTwoSidedGeometric:
    """The analytic distribution ``Pr[k] = (1-α)/(1+α)·α^{|k|}``."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError("alpha must be in (0, 1)")

    def pmf(self, k: np.ndarray) -> np.ndarray:
        """Probability of each integer ``k``."""
        k = np.asarray(k)
        scale = (1.0 - self.alpha) / (1.0 + self.alpha)
        return scale * np.power(self.alpha, np.abs(k))

    def magnitude_tail(self, j: int) -> float:
        """``Pr[|k| >= j]`` (= ``2α^j/(1+α)`` for j >= 1)."""
        if j <= 0:
            return 1.0
        return 2.0 * self.alpha**j / (1.0 + self.alpha)

    def exact_ldp_epsilon(self, shift_steps: int) -> float:
        """Worst log-ratio between the PMF and its ``shift_steps`` shift.

        Analytically ``shift_steps·|ln α|`` — the computation below checks
        it on a wide window (the tests compare both), demonstrating the
        ideal discrete mechanism is *exactly* ε-LDP with no guards.
        """
        if shift_steps < 1:
            raise ConfigurationError("shift_steps must be positive")
        window = np.arange(-50 * shift_steps, 50 * shift_steps + 1)
        p1 = self.pmf(window)
        p2 = self.pmf(window - shift_steps)
        return float(np.max(np.abs(np.log(p1) - np.log(p2))))

    def inverse_magnitude_cdf(self, u: np.ndarray) -> np.ndarray:
        """Smallest ``j`` with ``Pr[|k| <= j] >= u`` (vectorized)."""
        # dplint: allow[DPL002] -- ideal-model quantile: this class is the
        # continuous reference; the fixed-point realization quantizes it
        # in FxpGeometricRng and is certified via exact_pmf enumeration.
        u = np.asarray(u, dtype=float)
        if np.any((u <= 0) | (u > 1)):
            raise ConfigurationError("uniforms must be in (0, 1]")
        one_minus = np.maximum(1.0 - u, np.finfo(float).tiny)
        # dplint: allow[DPL002] -- same ideal-model quantile (see above).
        raw = np.log(one_minus * (1.0 + self.alpha) / 2.0) / math.log(self.alpha)
        return np.maximum(np.ceil(raw) - 1.0, 0.0)


class FxpGeometricRng(FxpInversionRng):
    """``Bu``-bit inverse-CDF realization of the two-sided geometric.

    ``datapath.delta`` is the grid step and ``ideal.alpha`` the decay per
    step.  The finite URNG bounds the support at the deepest rung one code
    can reach — the exact PMF makes the resulting privacy failure visible
    to the analyzer.
    """

    def __init__(
        self,
        datapath: FxpDatapath,
        ideal: IdealTwoSidedGeometric,
        source: Optional[UniformCodeSource] = None,
        kernel: str = "auto",
    ):
        super().__init__(datapath, source=source, kernel=kernel)
        self.ideal = ideal

    def _parameters(self) -> Tuple:
        return (self.ideal,)

    def magnitude_from_uniform(self, u: np.ndarray) -> np.ndarray:
        # dplint: allow[DPL002] -- u is the exactly representable m*2^-Bu
        # code scaling; the privacy analysis enumerates this datapath.
        u = np.minimum(np.asarray(u, dtype=float), self._u_cap())
        return self.ideal.inverse_magnitude_cdf(u) * self.config.delta

    @property
    def max_magnitude_real(self) -> float:
        return float(
            self.ideal.inverse_magnitude_cdf(np.asarray([self._u_cap()]))[0]
            * self.config.delta
        )

    def ideal_pmf_window(self) -> DiscretePMF:
        """The analytic PMF on the realization's support window."""
        top = self.top_code
        ks = np.arange(-top, top + 1)
        probs = self.ideal.pmf(ks)
        # Fold the (tiny) ideal tail beyond the window into the edges so
        # the comparison PMF is proper.
        tail = self.ideal.magnitude_tail(top + 1) / 2.0
        probs[0] += tail
        probs[-1] += tail
        return DiscretePMF(self.config.delta, -top, probs)
