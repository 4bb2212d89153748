"""Datapath design-space exploration (paper Section III-D).

"We found that to support sensors with resolution up to 13 bits with
privacy parameter ε ≥ 0.1, we needed to use 20-bit fixed-point values."
This module makes that kind of sizing statement computable: given a
sensor resolution (the grid) and a privacy target, find the minimum URNG
width ``Bu`` for which a guard threshold *exists* — and, optionally, for
which the guard is also cheap (resampling acceptance above a floor).

The search is exact: each candidate width is checked by building the
exact noise PMF and running the exact threshold calibration.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..errors import CalibrationError, ConfigurationError
from ..privacy.loss import input_grid_codes
from ..privacy.thresholds import calibrate_threshold_exact
from ..rng.inversion import FxpDatapath
from ..rng.laplace_fxp import FxpLaplaceRng

__all__ = ["DesignPoint", "minimum_input_bits", "design_point"]


@dataclasses.dataclass(frozen=True)
class DesignPoint:
    """One feasible datapath sizing."""

    input_bits: int
    epsilon: float
    delta: float
    threshold: float
    worst_loss_bound: float
    #: Exact single-draw acceptance probability at the range edge
    #: (resampling cost proxy); ``None`` for thresholding.
    edge_acceptance: Optional[float]


def design_point(
    d: float,
    epsilon: float,
    input_bits: int,
    range_frac_bits: int = 7,
    loss_multiple: float = 2.0,
    mode: str = "threshold",
) -> DesignPoint:
    """Calibrate one candidate sizing; raises CalibrationError if infeasible."""
    if d <= 0 or epsilon <= 0:
        raise ConfigurationError("d and epsilon must be positive")
    delta = d / (1 << range_frac_bits)
    datapath = FxpDatapath(input_bits=input_bits, output_bits=32, delta=delta)
    noise = FxpLaplaceRng(datapath, d / epsilon).exact_pmf()
    codes = input_grid_codes(0.0, d, delta, n_points=5)
    threshold = calibrate_threshold_exact(
        noise, codes, loss_multiple * epsilon, mode=mode
    )
    acceptance: Optional[float] = None
    if mode == "resample":
        k_th = int(round(threshold / delta))
        window_mass = noise.shifted(0).prob_array(-k_th, codes[-1] + k_th).sum()
        acceptance = float(window_mass)
    return DesignPoint(
        input_bits=input_bits,
        epsilon=epsilon,
        delta=delta,
        threshold=threshold,
        worst_loss_bound=loss_multiple * epsilon,
        edge_acceptance=acceptance,
    )


def minimum_input_bits(
    d: float,
    epsilon: float,
    range_frac_bits: int = 7,
    loss_multiple: float = 2.0,
    mode: str = "threshold",
    min_acceptance: Optional[float] = None,
    max_bits: int = 26,
) -> DesignPoint:
    """Smallest ``Bu`` for which the privacy target is achievable.

    Feasibility means a calibrated guard threshold exists for loss bound
    ``loss_multiple·ε``; with ``min_acceptance`` set (resampling only),
    the single-draw acceptance at the range edge must also clear the
    floor (the energy-cost criterion).

    Raises :class:`CalibrationError` if no width up to ``max_bits`` works.
    """
    if min_acceptance is not None and mode != "resample":
        raise ConfigurationError("min_acceptance applies to resampling only")
    last_error: Optional[Exception] = None
    for bu in range(4, max_bits + 1):
        try:
            point = design_point(
                d,
                epsilon,
                input_bits=bu,
                range_frac_bits=range_frac_bits,
                loss_multiple=loss_multiple,
                mode=mode,
            )
        except CalibrationError as exc:
            last_error = exc
            continue
        if (
            min_acceptance is not None
            and point.edge_acceptance is not None
            and point.edge_acceptance < min_acceptance
        ):
            continue
        return point
    raise CalibrationError(
        f"no URNG width up to {max_bits} bits supports eps={epsilon} at "
        f"{range_frac_bits}-bit sensor resolution ({last_error})"
    )
