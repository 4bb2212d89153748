"""Multi-sensor DP-Box with a shared privacy budget (paper Section IV).

"If there is more than one sensor, there also may need to be a hardware
mechanism for sharing the budget between all sensors since the readings
of different sensors could be combined to compromise privacy."

:class:`MultiSensorDPBox` manages N sensor channels.  Each channel has
its own guarded mechanism (range, ε, mode, exact segment table) but all
channels draw from **one** budget: the composition theorem makes losses
about the *same individual* additive across sensors, so per-sensor
budgets of B each would hand a cross-sensor adversary N·B of loss about
a quantity the sensors jointly measure.  Per-channel output caches keep
service available after exhaustion, exactly as in the single-sensor box.

This model sits at the mechanism level (vectorizable, exact analysis);
the cycle-level single-channel model is :class:`repro.core.dpbox.DPBox`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..errors import ConfigurationError
from ..mechanisms.base import SensorSpec
from ..mechanisms.resampling import ResamplingMechanism
from ..mechanisms.thresholding import ThresholdingMechanism
from ..runtime import ReleasePipeline, SlotCharge, budget_columns, default_pipeline
from .config import GuardMode
from .segments import SegmentTable, build_segment_table

__all__ = ["ChannelConfig", "ChannelReply", "MultiSensorDPBox"]


@dataclasses.dataclass(frozen=True)
class ChannelConfig:
    """Per-sensor channel configuration."""

    name: str
    sensor: SensorSpec
    epsilon: float
    guard_mode: GuardMode = GuardMode.THRESHOLD
    loss_multiple: float = 2.0
    input_bits: int = 14
    segment_levels: tuple = (1.0, 1.5, 2.0)

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        if self.loss_multiple <= 1.0:
            raise ConfigurationError("loss_multiple must exceed 1")


@dataclasses.dataclass(frozen=True)
class ChannelReply:
    """One reply from a channel."""

    channel: str
    value: float
    charged: float
    from_cache: bool


class _Channel:
    """Internal per-channel state: mechanism + segment table + cache."""

    def __init__(self, config: ChannelConfig, pipeline: Optional[ReleasePipeline]):
        self.config = config
        mech_cls = (
            ResamplingMechanism
            if config.guard_mode is GuardMode.RESAMPLE
            else ThresholdingMechanism
        )
        self.mechanism = mech_cls(
            config.sensor,
            config.epsilon,
            loss_multiple=config.loss_multiple,
            input_bits=config.input_bits,
            pipeline=pipeline,
        )
        family = self.mechanism._family()
        self.table: SegmentTable = build_segment_table(
            family, config.epsilon, config.segment_levels
        )
        #: One-slot cached column: the last released code (NaN before one).
        self.cached = np.full(1, np.nan)

    def value_of(self, code: int) -> float:
        return code * self.mechanism.delta


class MultiSensorDPBox:
    """N guarded channels drawing on one shared privacy budget."""

    def __init__(
        self,
        channels: Dict[str, ChannelConfig] | list,
        budget: float,
        cache_on_exhaustion: bool = True,
        pipeline: Optional[ReleasePipeline] = None,
    ):
        if isinstance(channels, list):
            names = [c.name for c in channels]
            if len(set(names)) != len(names):
                raise ConfigurationError("channel names must be unique")
            channels = {c.name: c for c in channels}
        if not channels:
            raise ConfigurationError("need at least one channel")
        self._pipeline = pipeline
        self._channels = {
            name: _Channel(cfg, pipeline) for name, cfg in channels.items()
        }
        self.budget = float(budget)
        self._remaining, _ = budget_columns(budget, cache=False)
        self.cache_on_exhaustion = cache_on_exhaustion
        self.n_fresh = 0
        self.n_cached = 0

    # ------------------------------------------------------------------
    @property
    def channel_names(self) -> list:
        """Configured channel names."""
        return list(self._channels)

    @property
    def remaining_budget(self) -> float:
        """Shared budget still available, never below 0."""
        return max(float(self._remaining[0]), 0.0)

    def channel(self, name: str) -> _Channel:
        """Access a channel's internals (mechanism, segment table)."""
        if name not in self._channels:
            raise ConfigurationError(f"unknown channel {name!r}")
        return self._channels[name]

    def replenish(self) -> None:
        """Restore the shared budget (new accounting period)."""
        self._remaining[0] = self.budget

    @property
    def pipeline(self) -> ReleasePipeline:
        """The release pipeline all channels emit through."""
        return self._pipeline if self._pipeline is not None else default_pipeline()

    # ------------------------------------------------------------------
    def request(self, channel: str, x: float) -> ChannelReply:
        """Noise a reading on a channel, charging the shared budget.

        One pipeline pass: the channel mechanism draws and guards, then
        :class:`~repro.runtime.SlotCharge` charges the realized output's
        segment loss (Algorithm 1) against the *shared* budget column,
        or replays the channel's own cached column after exhaustion.
        The emitted event carries the channel name and the shared budget
        remaining; on a refused charge with an empty cache, an
        ``exhausted=True`` event precedes the
        :class:`~repro.errors.BudgetExhaustedError`.
        """
        ch = self.channel(channel)
        outcome = ch.mechanism.release(
            np.asarray([x]),
            accounting=SlotCharge(
                self._remaining,
                ch.cached if self.cache_on_exhaustion else None,
                ch.table,
            ),
            channel=channel,
        )
        from_cache = bool(outcome.cache_hits[0])
        self.n_fresh += int(not from_cache)
        self.n_cached += int(from_cache)
        return ChannelReply(
            channel=channel,
            value=ch.value_of(int(outcome.codes[0])),
            charged=float(outcome.charged[0]),
            from_cache=from_cache,
        )

    def total_disclosed_loss(self) -> float:
        """Composition-theorem total loss released so far this period."""
        return self.budget - self.remaining_budget
