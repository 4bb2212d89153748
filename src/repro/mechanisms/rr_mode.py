"""DP-Box randomized-response mode (paper Section VI-E).

"The proposed DP-box can be reconfigured to support the randomized
response mechanism by setting the threshold zero" — with binary data
``x ∈ {m, M}``, the thresholded output clamps into ``[m, M]`` and is
quantized to the nearer endpoint, which is exactly Warner randomized
response with flip probability ``q = Pr[x + n crosses the midpoint]``.

:class:`DpBoxRandomizedResponse` computes the induced 2x2 channel
*exactly* from the fixed-point noise PMF, reports the exact ε it
provides, and exposes the debiased frequency estimator used in Fig. 14.

It is also the binary arm of the categorical oracle protocol
(:class:`~repro.mechanisms.categorical.CategoricalMechanism`): encode
maps a bit to its sensor endpoint, perturb is the zero-threshold DP-Box
release (unchanged — the re-homing is bit-identical), and the exact 2x2
channel supplies the ``(p, q)`` the frequency estimators invert.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..privacy.definitions import LossReport, pointwise_loss
from ..runtime import ReleaseOutcome, ReleaseRequest
from .base import SensorSpec
from .categorical import CategoricalMechanism
from .fxp_common import FxpMechanismBase

__all__ = ["DpBoxRandomizedResponse"]


class DpBoxRandomizedResponse(FxpMechanismBase, CategoricalMechanism):
    """Binary randomized response realized by a zero-threshold DP-Box."""

    name = "DP-Box RR"

    #: Binary domain: the two sensor endpoints.
    n_categories = 2

    def __init__(self, sensor: SensorSpec, epsilon: float, **kwargs):
        super().__init__(sensor, epsilon, **kwargs)
        d_codes = self.k_M - self.k_m
        if d_codes < 2:
            raise ConfigurationError("binary range collapses on the noise grid")
        #: Midpoint crossing code: output >= midpoint reports M.
        self._k_mid = self.k_m + (d_codes + 1) // 2
        self._flip_from_m, self._flip_from_M = self._exact_flip_probs()

    # ------------------------------------------------------------------
    def _exact_flip_probs(self) -> Tuple[float, float]:
        """Exact flip probability for each of the two true values."""
        pmf = self.noise_pmf
        # x = m: reported as M when m + n >= midpoint.
        flip_m = pmf.shifted(self.k_m).tail_ge(self._k_mid)
        # x = M: reported as m when M + n < midpoint.
        flip_M = pmf.shifted(self.k_M).tail_le(self._k_mid - 1)
        if flip_m >= 0.5 or flip_M >= 0.5:
            raise ConfigurationError(
                "flip probability >= 1/2: the configured epsilon is too small "
                "for a useful randomized response"
            )
        return float(flip_m), float(flip_M)

    @property
    def flip_probability(self) -> float:
        """Worst-side flip probability (the utility-relevant one)."""
        return max(self._flip_from_m, self._flip_from_M)

    @property
    def keep_probability(self) -> float:
        """Worst-side keep probability."""
        return 1.0 - self.flip_probability

    def exact_epsilon(self) -> float:
        """Exact ε of the induced 2x2 channel."""
        return self.ldp_report().worst_loss

    # ------------------------------------------------------------------
    # Categorical-protocol client stages (encode -> perturb).  The
    # perturb stage is the *unchanged* zero-threshold DP-Box release, so
    # re-homing onto CategoricalMechanism is bit-identical by
    # construction (regression-locked in tests/unit/test_rr_mode.py).
    # ------------------------------------------------------------------
    def encode(self, values: np.ndarray, user_offset: int = 0) -> np.ndarray:
        """Encode 0/1 data onto the sensor endpoints (0 → m, 1 → M)."""
        bits = np.asarray(values)
        if not np.all((bits == 0) | (bits == 1)):
            raise ConfigurationError("RR mode expects 0/1 data")
        return np.where(bits == 1, self.sensor.M, self.sensor.m)

    def perturb_request(self, encoded, user_offset: int = 0) -> ReleaseRequest:
        """The perturbation IS the zero-threshold DP-Box release."""
        return self.release_request(np.asarray(encoded, dtype=float))

    def _reports_from_outcome(
        self, outcome: ReleaseOutcome, encoded: np.ndarray
    ) -> np.ndarray:
        """Quantize released endpoint values back to 0/1 reports."""
        reported = np.asarray(outcome.values, dtype=float).reshape(
            np.asarray(encoded).shape
        )
        return (reported >= (self._k_mid * self.delta) - 0.5 * self.delta).astype(int)

    def privatize_bits(self, bits: np.ndarray) -> np.ndarray:
        """Privatize 0/1 data (0 → m, 1 → M) and return 0/1 reports."""
        return self.perturb(self.encode(bits))

    def support_counts(self, reports, user_offset: int = 0) -> np.ndarray:
        """Per-endpoint support counts ``[#0-reports, #1-reports]``."""
        reports = np.asarray(reports).reshape(-1)
        ones = int(np.count_nonzero(reports))
        return np.array([reports.size - ones, ones], dtype=np.int64)

    def estimator_params(self) -> Tuple[float, float]:
        """Exact realized channel ``(p, q)`` for the 1-endpoint."""
        return 1.0 - self._flip_from_M, self._flip_from_m

    @property
    def report_bits(self) -> int:
        """One bit on the wire per report."""
        return 1

    def release_request(self, x: np.ndarray) -> ReleaseRequest:
        """RR release: threshold-0 window ``[k_m, k_M]``, endpoint decode.

        Sensor readings arrive as real values; they are immediately
        mapped to the two integer endpoint codes k_m/k_M and all noise
        arithmetic in the pipeline is on integer codes.  Decode
        quantizes the clamped output to the nearer endpoint — the
        categorical RR output alphabet.
        """
        x = np.asarray(x, dtype=float)
        is_m = np.isclose(x, self.sensor.m)
        is_M = np.isclose(x, self.sensor.M)
        if not np.all(is_m | is_M):
            raise ConfigurationError("RR mode expects binary values in {m, M}")
        k_x = np.where(is_M, self.k_M, self.k_m).astype(np.int64).reshape(-1)
        request = self._build_request(
            np.where(is_M, self.sensor.M, self.sensor.m),
            guard="threshold",
            window=(self.k_m, self.k_M),
        )
        request.codes = k_x
        k_mid, m, M = self._k_mid, self.sensor.m, self.sensor.M
        request.decode = lambda k: np.where(k >= k_mid, M, m)
        return request

    def estimate_frequency(self, noisy_bits: np.ndarray) -> float:
        """Debiased estimate of the true 1-frequency from noisy reports.

        Uses the average of the two exact flip probabilities as the
        channel symmetrization (they differ only by one grid step's worth
        of tie handling).  ``E[observed] = keep·f + (1-keep)·(1-f)`` is
        inverted and clipped to ``[0, 1]``, the estimator behind the
        paper's MAE plots.
        """
        keep = 1.0 - 0.5 * (self._flip_from_m + self._flip_from_M)
        raw = (float(np.mean(noisy_bits)) - (1.0 - keep)) / (2.0 * keep - 1.0)
        return min(max(raw, 0.0), 1.0)

    # ------------------------------------------------------------------
    def channel_matrix(self) -> np.ndarray:
        """Exact 2x2 channel: rows = true (m, M), cols = reported (m, M)."""
        return np.array(
            [
                [1.0 - self._flip_from_m, self._flip_from_m],
                [self._flip_from_M, 1.0 - self._flip_from_M],
            ]
        )

    def ldp_report(self, epsilon_target: Optional[float] = None) -> LossReport:
        target = self.epsilon if epsilon_target is None else epsilon_target
        ch = self.channel_matrix()
        losses = [
            abs(pointwise_loss(ch[0, j], ch[1, j])) for j in range(2)
        ]
        worst = max(losses)
        j = int(np.argmax(losses))
        return LossReport(
            worst_loss=float(worst),
            epsilon_target=target,
            argmax_output=float(self.sensor.m if j == 0 else self.sensor.M),
            argmax_inputs=(self.sensor.m, self.sensor.M),
            n_infinite_outputs=0 if math.isfinite(worst) else 1,
        )
