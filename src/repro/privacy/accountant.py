"""Sequential composition of privacy losses.

The composition theorem (paper Section II-A) says a series of queries
answered with losses ``ε_1, ..., ε_n`` incurs total loss ``Σ ε_i``.
Budgets are enforced by the one spend-or-replay charge rule,
:class:`repro.runtime.SlotCharge`; the DP-Box specifics (segment table,
replenishment timer) live in :mod:`repro.core.budget`.
"""

from __future__ import annotations

from typing import List

from ..errors import ConfigurationError

__all__ = ["compose_losses"]


def compose_losses(losses: List[float]) -> float:
    """Total privacy loss of a query sequence (sequential composition)."""
    if any(l < 0 for l in losses):
        raise ConfigurationError("losses must be nonnegative")
    return float(sum(losses))
