"""Simulated LDP sensor device.

A :class:`Device` owns a raw sensor stream and a local mechanism; the
*only* way data leaves it is :meth:`report`, which privatizes through
the release pipeline.  An optional on-device budget mirrors DP-Box
semantics: each report is charged its flat per-report loss by
:class:`~repro.runtime.SlotCharge` over the device's one-slot budget
columns, and after exhaustion the device replays its cached report (no
new loss) until :meth:`replenish`.
Every report is one :class:`~repro.runtime.ReleaseEvent` on the
mechanism's pipeline, with the device id as the event channel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import BudgetExhaustedError, ConfigurationError
from ..mechanisms.base import LocalMechanism
from ..runtime import SlotCharge, budget_columns
from .protocol import Report

__all__ = ["Device"]


class Device:
    """A sensor node that only ever emits privatized reports."""

    def __init__(
        self,
        device_id: str,
        mechanism: LocalMechanism,
        budget: Optional[float] = None,
    ):
        if not device_id:
            raise ConfigurationError("device_id must be nonempty")
        self.device_id = device_id
        self._mechanism = mechanism
        self._budget = budget
        self._remaining, self._cached = (
            budget_columns(budget) if budget is not None else (None, None)
        )
        self.n_fresh = 0
        self.n_cached = 0

    # ------------------------------------------------------------------
    @property
    def per_report_loss(self) -> float:
        """The mechanism's certified per-report loss bound."""
        return self._mechanism.claimed_loss_bound

    @property
    def remaining_budget(self) -> Optional[float]:
        """On-device budget left, never below 0 (None when budgeting is disabled)."""
        if self._remaining is None:
            return None
        return max(float(self._remaining[0]), 0.0)

    def replenish(self) -> None:
        """Start a new accounting period."""
        if self._remaining is not None:
            self._remaining[0] = self._budget

    # ------------------------------------------------------------------
    def report(self, raw_value: float, epoch: int) -> Report:
        """Privatize one reading and package it for the aggregator."""
        accounting = (
            SlotCharge(self._remaining, self._cached, self.per_report_loss)
            if self._remaining is not None
            else None
        )
        try:
            outcome = self._mechanism.release(
                np.asarray([raw_value]),
                accounting=accounting,
                channel=self.device_id,
            )
        except BudgetExhaustedError as exc:
            raise ConfigurationError(
                f"device {self.device_id}: budget exhausted before any report"
            ) from exc
        from_cache = bool(outcome.cache_hits[0])
        self.n_cached += int(from_cache)
        self.n_fresh += int(not from_cache)
        return Report(
            device_id=self.device_id,
            epoch=epoch,
            value=float(outcome.values[0]),
            claimed_loss=self.per_report_loss,
        )
