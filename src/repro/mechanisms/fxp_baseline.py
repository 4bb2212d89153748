"""Naive fixed-point Laplace mechanism — the paper's broken baseline.

This arm adds fixed-point noise (Laplace unless ``noise_rng=`` supplies
another generator) with **no guard**.  Its utility is essentially
indistinguishable from the ideal mechanism (paper Tables II–V, "FxP HW
Baseline"), but its exact worst-case privacy loss is
infinite: outputs beyond ``x ± L`` and the zero-probability tail holes
let an adversary rule inputs out with certainty (Sections III-A3, VI-A).
Every other finite-entropy generator fails the same way (Section III-A4).
"""

from __future__ import annotations

import numpy as np

from ..privacy.loss import DiscreteMechanismFamily
from ..runtime import ReleaseRequest
from .fxp_common import FxpMechanismBase

__all__ = ["FxpBaselineMechanism"]


class FxpBaselineMechanism(FxpMechanismBase):
    """``y = quantize(x) + n_fxp`` with no resampling or thresholding."""

    name = "FxP baseline"

    def release_request(self, x: np.ndarray) -> ReleaseRequest:
        return self._build_request(x, guard="none")

    def _family(self) -> DiscreteMechanismFamily:
        return DiscreteMechanismFamily.additive(
            self.noise_pmf, self.verification_codes(), mode="baseline"
        )
