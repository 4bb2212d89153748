"""DP-Box budget engine (paper Algorithm 1 + caching + replenishment).

Holds the state behind the output-adaptive accounting of Section III-C:
the :class:`~repro.core.segments.SegmentTable` that prices each realized
output, the one-slot budget columns the DP-Box charges through
:class:`~repro.runtime.SlotCharge` (spend, else replay the cached last
output at no additional loss, else halt), and the cycle-driven timer
that restores the budget periodically.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError
from ..runtime import budget_columns
from .segments import SegmentTable

__all__ = ["BudgetEngine"]


class BudgetEngine:
    """Segment table, budget columns and replenishment timer."""

    def __init__(
        self,
        table: SegmentTable,
        budget: float,
        replenish_period_cycles: Optional[int] = None,
        cache_on_exhaustion: bool = True,
    ):
        if replenish_period_cycles is not None and replenish_period_cycles <= 0:
            raise ConfigurationError("replenishment period must be positive")
        self.table = table
        self.budget = float(budget)
        #: ``(remaining, cached)`` one-slot columns; ``cached`` is
        #: ``None`` when the engine halts instead of replaying.
        self.slot = budget_columns(budget, cache=cache_on_exhaustion)
        self.replenish_period_cycles = replenish_period_cycles
        self._cycles_since_replenish = 0
        self.n_cached_replies = 0
        self.n_fresh_replies = 0
        self.n_replenishments = 0

    @property
    def remaining(self) -> float:
        """Budget still available in the current period, never below 0."""
        return max(float(self.slot[0][0]), 0.0)

    def advance_cycles(self, n: int) -> None:
        """Account elapsed idle cycles; replenish when the period elapses.

        The DP-Box tracks this while in the waiting phase (Section
        IV-C.2).
        """
        if self.replenish_period_cycles is None:
            return
        self._cycles_since_replenish += n
        while self._cycles_since_replenish >= self.replenish_period_cycles:
            self._cycles_since_replenish -= self.replenish_period_cycles
            self.slot[0][0] = self.budget
            self.n_replenishments += 1
