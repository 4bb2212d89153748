"""Local-privacy mechanism arms used throughout the evaluation.

The four numeric arms of paper Tables II–V plus the categorical
randomized-response mode, all behind one :class:`LocalMechanism` API.
:func:`make_mechanism` builds an arm by table name.
"""

from typing import Optional

from ..errors import ConfigurationError
from .base import LocalMechanism, SensorSpec
from .categorical import CategoricalMechanism
from .fxp_baseline import FxpBaselineMechanism
from .fxp_common import DEFAULT_INPUT_BITS, DEFAULT_OUTPUT_BITS, FxpMechanismBase
from .ideal_laplace import IdealLaplaceMechanism
from .oracles import (
    DEFAULT_ORACLE_BITS,
    KaryRandomizedResponse,
    OptimizedLocalHashing,
    OptimizedUnaryEncoding,
    ORACLE_NAMES,
    make_oracle,
)
from .resampling import ResamplingMechanism
from .rr_mode import DpBoxRandomizedResponse
from .thresholding import ThresholdingMechanism

__all__ = [
    "LocalMechanism",
    "SensorSpec",
    "CategoricalMechanism",
    "FxpBaselineMechanism",
    "FxpMechanismBase",
    "IdealLaplaceMechanism",
    "ResamplingMechanism",
    "ThresholdingMechanism",
    "DpBoxRandomizedResponse",
    "KaryRandomizedResponse",
    "OptimizedUnaryEncoding",
    "OptimizedLocalHashing",
    "make_oracle",
    "ORACLE_NAMES",
    "DEFAULT_ORACLE_BITS",
    "DEFAULT_INPUT_BITS",
    "DEFAULT_OUTPUT_BITS",
    "make_mechanism",
    "ARM_NAMES",
]

#: Canonical evaluation-arm names, in paper table order.
ARM_NAMES = ("ideal", "baseline", "resampling", "thresholding")


def make_mechanism(
    arm: str,
    sensor: SensorSpec,
    epsilon: float,
    loss_multiple: float = 2.0,
    **kwargs,
) -> LocalMechanism:
    """Build an evaluation arm by name.

    ``arm`` is one of ``"ideal"``, ``"baseline"``, ``"resampling"``,
    ``"thresholding"`` or ``"rr"``.  Extra keyword arguments are passed to
    the mechanism constructor (bit widths, Δ, URNG source, ...).  The
    fixed-point arms take ``noise_rng=`` — any
    :class:`~repro.rng.inversion.FxpInversionRng` (staircase, Gaussian,
    geometric) in place of the default fixed-point Laplace generator.
    """
    arm = arm.lower()
    if arm == "ideal":
        rng = kwargs.pop("rng", None)
        pipeline = kwargs.pop("pipeline", None)
        if kwargs:
            raise ConfigurationError(f"unsupported options for ideal arm: {kwargs}")
        return IdealLaplaceMechanism(sensor, epsilon, rng=rng, pipeline=pipeline)
    if arm == "baseline":
        return FxpBaselineMechanism(sensor, epsilon, **kwargs)
    if arm == "resampling":
        return ResamplingMechanism(sensor, epsilon, loss_multiple=loss_multiple, **kwargs)
    if arm == "thresholding":
        return ThresholdingMechanism(sensor, epsilon, loss_multiple=loss_multiple, **kwargs)
    if arm == "rr":
        return DpBoxRandomizedResponse(sensor, epsilon, **kwargs)
    raise ConfigurationError(f"unknown mechanism arm {arm!r}")
