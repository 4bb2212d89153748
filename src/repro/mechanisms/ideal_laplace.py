"""Ideal continuous Laplace mechanism — the evaluation's gold standard."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..privacy.definitions import LossReport
from ..rng.laplace_ideal import IdealLaplace
from ..rng.urng import audited_generator
from ..runtime import ReleaseRequest
from .base import LocalMechanism, SensorSpec

__all__ = ["IdealLaplaceMechanism"]


class IdealLaplaceMechanism(LocalMechanism):
    """``y = x + Lap(d/ε)`` over float64 — provably exactly ε-LDP.

    This mechanism cannot exist in real hardware (paper Section III-A4),
    but it is the yardstick every discrete arm is compared against in
    Tables II–V.
    """

    name = "Ideal"

    def __init__(
        self,
        sensor: SensorSpec,
        epsilon: float,
        rng: Optional[np.random.Generator] = None,
        pipeline=None,
    ):
        super().__init__(sensor, epsilon, pipeline=pipeline)
        self._laplace = IdealLaplace(sensor.d / epsilon)
        self._rng = rng or audited_generator()

    def _sample_noise(self, n: int) -> np.ndarray:
        """Draw ``n`` float64 ``Lap(d/ε)`` values (the pipeline's draw stage)."""
        return self._laplace.sample(n, self._rng)

    def release_request(self, x: np.ndarray) -> ReleaseRequest:
        """Ideal arm: real-valued "codes" (no grid), no guard.

        The ideal mechanism has no fixed-point datapath, so its pipeline
        codes are the float readings themselves and decode is identity.
        """
        x = self._check_inputs(x)
        return ReleaseRequest(
            mechanism=self.name,
            epsilon=self.epsilon,
            claimed_loss=self.claimed_loss_bound,
            codes=x.reshape(-1),
            draw=self._sample_noise,
            guard="none",
        )

    def ldp_report(self, epsilon_target: Optional[float] = None) -> LossReport:
        """Analytic: the continuous Laplace mechanism's loss is exactly ε."""
        target = self.epsilon if epsilon_target is None else epsilon_target
        return LossReport(
            worst_loss=self.epsilon,
            epsilon_target=target,
            argmax_inputs=(self.sensor.m, self.sensor.M),
        )
