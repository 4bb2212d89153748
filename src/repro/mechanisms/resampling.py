"""Resampling mechanism (paper Section III-B1).

When the noised output falls outside the common window
``[m - n_th1, M + n_th1]`` the noise is redrawn until it lands inside.
Because the window is *common to every input*, no output value can rule
any input out, and choosing ``n_th1`` small enough also bounds the finite
likelihood ratios — restoring ε-LDP on fixed-point hardware at the cost
of occasional extra RNG cycles.

The threshold is chosen either by the paper's closed form (eq. 13) or by
exact calibration against the target loss ``n·ε`` (the default; see
DESIGN.md §5 and :class:`~repro.mechanisms.fxp_common.GuardedFxpMechanism`).
:meth:`ResamplingMechanism.privatize_with_counts` exposes the per-sample
draw counts, which is exactly the data the DP-Box latency evaluation
(Fig. 11) needs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..privacy.thresholds import paper_resampling_threshold
from ..runtime import DEFAULT_MAX_ROUNDS
from .fxp_common import GuardedFxpMechanism

__all__ = ["ResamplingMechanism"]


class ResamplingMechanism(GuardedFxpMechanism):
    """Fixed-point noise with redraw-until-in-window guarding."""

    name = "Resampling"
    guard = "resample"
    #: Hard cap on redraw rounds; with any sane threshold the acceptance
    #: probability is > 0.9, so exhausting this indicates a config bug —
    #: the pipeline raises :class:`repro.errors.ResampleExhaustedError` and
    #: emits an ``exhausted=True`` event when it happens.
    _max_rounds = DEFAULT_MAX_ROUNDS

    def _paper_threshold(self) -> float:
        """Paper eq. (13)."""
        return paper_resampling_threshold(
            self.sensor.d,
            self.delta,
            self.epsilon,
            self.rng.config.input_bits,
            self.loss_multiple,
        )

    # ------------------------------------------------------------------
    def acceptance_probability(self, x: float) -> float:
        """Exact probability a single draw lands inside the window."""
        k_x = int(self.quantize_inputs(np.asarray([x]))[0])
        shifted = self.noise_pmf.shifted(k_x)
        lo, hi = self.window
        return float(shifted.prob_array(lo, hi).sum())

    def expected_draws(self, x: float) -> float:
        """Expected RNG draws per output (geometric: ``1/p_accept``)."""
        return 1.0 / self.acceptance_probability(x)

    def privatize_with_counts(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Privatize and also return per-sample draw counts.

        The counts are the pipeline's per-sample round counts — the same
        numbers carried on the emitted :class:`~repro.runtime.ReleaseEvent`
        (``draws`` / ``max_rounds_used``), exposed here array-shaped for
        the exact Fig. 11/12 analyses.
        """
        x = np.asarray(x)
        outcome = self.release(x)
        return outcome.values, outcome.rounds.reshape(x.shape)
