"""Differential-privacy analysis and accounting: definitions, exact loss
analysis, thresholds, budget accounting and verification.

This package draws no randomness.  Every sampler lives with the
mechanisms and releases through :class:`~repro.runtime.ReleasePipeline`.
"""

from .accountant import compose_losses
from .approximate import delta_at_epsilon, epsilon_at_delta, hockey_stick_divergence
from .definitions import LossReport, pointwise_loss
from .loss import DiscreteMechanismFamily, input_grid_codes
from .thresholds import (
    calibrate_threshold_exact,
    exact_worst_loss_at_threshold,
    paper_resampling_threshold,
    paper_thresholding_threshold,
)
from .verify import verify_additive_mechanism, verify_family
from .windows import FixedWindowAccountant, SlidingWindowAccountant

__all__ = [
    "compose_losses",
    "delta_at_epsilon",
    "epsilon_at_delta",
    "hockey_stick_divergence",
    "LossReport",
    "pointwise_loss",
    "DiscreteMechanismFamily",
    "input_grid_codes",
    "calibrate_threshold_exact",
    "exact_worst_loss_at_threshold",
    "paper_resampling_threshold",
    "paper_thresholding_threshold",
    "verify_additive_mechanism",
    "verify_family",
    "FixedWindowAccountant",
    "SlidingWindowAccountant",
]
