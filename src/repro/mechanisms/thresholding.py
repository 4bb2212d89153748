"""Thresholding mechanism (paper Section III-B2).

The noised output is clamped into ``[m - n_th2, M + n_th2]``: everything
beyond the window is rounded *to* the window boundary, creating visible
probability atoms at the two extremes (paper Fig. 7).  One noise draw
always suffices, so thresholding is the energy-efficient guard; the
boundary atoms change the output distribution, which shifts utility in a
data-dependent way relative to resampling (Section VI-B).

Threshold selection (see
:class:`~repro.mechanisms.fxp_common.GuardedFxpMechanism`):

* ``threshold_policy="paper"`` — eq. (15), which bounds the loss ratio of
  the two *boundary atoms* by ``n·ε``.  Note (DESIGN.md §5): at low URNG
  resolution the clamped window interior can still contain
  zero-probability holes that eq. (15) does not see; the exact analyzer
  reports infinite loss in that case.
* ``threshold_policy="exact"`` (default) — the largest threshold whose
  exactly computed worst-case loss (atoms *and* interior) is ``<= n·ε``.
"""

from __future__ import annotations

import numpy as np

from ..privacy.thresholds import paper_thresholding_threshold
from .fxp_common import GuardedFxpMechanism

__all__ = ["ThresholdingMechanism"]


class ThresholdingMechanism(GuardedFxpMechanism):
    """Fixed-point noise with clamp-to-window guarding."""

    name = "Thresholding"
    guard = "threshold"

    def _paper_threshold(self) -> float:
        """Paper eq. (15)."""
        return paper_thresholding_threshold(
            self.sensor.d,
            self.delta,
            self.epsilon,
            self.rng.config.input_bits,
            self.loss_multiple,
        )

    # ------------------------------------------------------------------
    def boundary_atom_probability(self, x: float) -> float:
        """Exact probability the output clamps (either side) for input x."""
        k_x = int(self.quantize_inputs(np.asarray([x]))[0])
        shifted = self.noise_pmf.shifted(k_x)
        lo, hi = self.window
        return float(shifted.tail_le(lo - 1) + shifted.tail_ge(hi + 1))
