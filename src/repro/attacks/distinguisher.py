"""Tail-event distinguishing attack on the naive baseline (paper Fig. 12).

Fig. 12 feeds two different Statlog entries into the naive FxP DP-Box and
shows that, near the tail, the two output histograms stop overlapping —
an adversary observing such an output identifies the input *with
certainty*.  This module makes that attack operational:

* :func:`distinguishing_outputs` computes, exactly from the mechanism's
  conditional PMFs, which outputs reveal the input (one PMF positive, the
  other zero);
* :func:`run_distinguisher` samples the mechanism and reports how often a
  certain identification actually occurs, plus the adversary's overall
  advantage.

Against a guarded (resampling/thresholding) mechanism the certain set is
empty — the experiments use that contrast.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError
from ..mechanisms.fxp_common import FxpMechanismBase

__all__ = ["DistinguisherReport", "distinguishing_outputs", "run_distinguisher"]


@dataclasses.dataclass(frozen=True)
class DistinguisherReport:
    """Outcome of the two-hypothesis identification attack."""

    x1: float
    x2: float
    #: Exact probability a single output identifies x1 with certainty
    #: (output possible under x1, impossible under x2).
    certain_rate_x1: float
    #: Symmetric rate for x2.
    certain_rate_x2: float
    #: Empirical fraction of sampled outputs that were certain.
    observed_certain_fraction: float
    #: Bayes advantage of the optimal distinguisher over a coin flip
    #: (1/2·TV distance between the two output distributions... in [0, 1/2]).
    bayes_advantage: float


def _conditional_pmfs(mech: FxpMechanismBase, x1: float, x2: float):
    """The mechanism's conditional family restricted to two hypotheses."""
    from ..privacy.loss import DiscreteMechanismFamily

    k1 = int(mech.quantize_inputs(np.asarray([x1]))[0])
    k2 = int(mech.quantize_inputs(np.asarray([x2]))[0])
    if k1 == k2:
        raise ConfigurationError("the two hypotheses quantize to the same code")
    if hasattr(mech, "window"):
        return DiscreteMechanismFamily.additive(
            mech.noise_pmf, [k1, k2], window=mech.window, mode=mech.guard
        )
    return DiscreteMechanismFamily.additive(mech.noise_pmf, [k1, k2], mode="baseline")


def distinguishing_outputs(
    mech: FxpMechanismBase, x1: float, x2: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Output values certain for x1, certain for x2, and ambiguous.

    "Certain for x1" means reachable under x1 but unreachable under x2.
    """
    fam = _conditional_pmfs(mech, x1, x2)
    p1, p2 = fam.matrix[0], fam.matrix[1]
    vals = fam.output_values()
    only1 = (p1 > 0) & (p2 == 0)
    only2 = (p2 > 0) & (p1 == 0)
    both = (p1 > 0) & (p2 > 0)
    return vals[only1], vals[only2], vals[both]


def run_distinguisher(
    mech: FxpMechanismBase,
    x1: float,
    x2: float,
    n_samples: int = 20000,
) -> DistinguisherReport:
    """Exact rates + an empirical confirmation by sampling the mechanism."""
    if n_samples < 1:
        raise ConfigurationError("need at least one sample")
    fam = _conditional_pmfs(mech, x1, x2)
    p1, p2 = fam.matrix[0], fam.matrix[1]
    certain1 = float(p1[(p1 > 0) & (p2 == 0)].sum())
    certain2 = float(p2[(p2 > 0) & (p1 == 0)].sum())
    tv = 0.5 * float(np.abs(p1 - p2).sum())  # total-variation distance
    # Empirical: sample both hypotheses, check membership in the certain sets.
    vals1, vals2, _ = distinguishing_outputs(mech, x1, x2)
    cs1 = set(np.round(vals1 / mech.delta).astype(int))
    cs2 = set(np.round(vals2 / mech.delta).astype(int))
    half = n_samples // 2
    y1 = mech.privatize(np.full(half, x1))
    y2 = mech.privatize(np.full(n_samples - half, x2))
    k_y1 = np.round(y1 / mech.delta).astype(int)
    k_y2 = np.round(y2 / mech.delta).astype(int)
    hits = sum(k in cs1 for k in k_y1) + sum(k in cs2 for k in k_y2)
    return DistinguisherReport(
        x1=x1,
        x2=x2,
        certain_rate_x1=certain1,
        certain_rate_x2=certain2,
        observed_certain_fraction=hits / n_samples,
        bayes_advantage=0.5 * tv,
    )
