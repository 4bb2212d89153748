"""Sequential composition, and the budget the spend-or-replay rule keeps."""

import numpy as np
import pytest

from repro.aggregation import Device
from repro.core import BudgetEngine, Segment, SegmentTable
from repro.errors import BudgetExhaustedError, ConfigurationError
from repro.mechanisms import SensorSpec, make_mechanism
from repro.privacy import compose_losses
from repro.runtime import SlotCharge, budget_columns


def spend(remaining, loss, cached=None, code=0.0):
    """Charge one code to a one-slot budget; returns the outcome."""
    return SlotCharge(remaining, cached, loss).charge(np.asarray([code]))


class TestCompose:
    def test_sum(self):
        assert compose_losses([0.5, 0.25, 0.25]) == 1.0

    def test_empty_is_zero(self):
        assert compose_losses([]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            compose_losses([0.5, -0.1])


class TestAccountant:
    def test_initial_state(self):
        remaining, cached = budget_columns(2.0)
        assert remaining.tolist() == [2.0]
        assert np.isnan(cached).all()
        assert budget_columns(2.0, cache=False)[1] is None

    def test_spend_accumulates(self):
        remaining, _ = budget_columns(2.0)
        spend(remaining, 0.5)
        spend(remaining, 0.25)
        assert remaining[0] == 1.25

    def test_history(self):
        # Each outcome records the loss it charged, in release order.
        remaining, _ = budget_columns(2.0)
        charged = [spend(remaining, loss).charged[0] for loss in (0.5, 0.3)]
        assert charged == [0.5, 0.3]

    def test_overspend_raises(self):
        remaining, _ = budget_columns(1.0)
        spend(remaining, 0.9)
        with pytest.raises(BudgetExhaustedError):
            spend(remaining, 0.2)

    def test_overspend_leaves_state_untouched(self):
        remaining, cached = budget_columns(1.0)
        spend(remaining, 0.9)
        with pytest.raises(BudgetExhaustedError):
            spend(remaining, 0.2, cached)
        assert remaining[0] == 1.0 - 0.9
        assert np.isnan(cached[0])

    def test_can_spend(self):
        remaining, cached = budget_columns(1.0)
        assert not spend(remaining, 0.6, cached, code=1.0).cache_hits[0]
        replay = spend(remaining, 0.5, cached, code=2.0)
        assert replay.cache_hits[0] and replay.codes[0] == 1.0
        assert not spend(remaining, 0.4, cached, code=3.0).cache_hits[0]

    def test_exact_exhaustion_allowed(self):
        remaining, _ = budget_columns(1.0)
        spend(remaining, 1.0)
        assert remaining[0] == 0.0

    def test_reset(self):
        mech = make_mechanism("thresholding", SensorSpec(0.0, 8.0), 0.5, input_bits=10)
        dev = Device("d", mech, budget=mech.claimed_loss_bound)
        dev.report(4.0, 0)
        assert dev.remaining_budget == 0.0
        dev.replenish()
        assert dev.remaining_budget == mech.claimed_loss_bound

    def test_negative_loss_rejected(self):
        with pytest.raises(ConfigurationError):
            SlotCharge(np.array([1.0]), None, -0.1)

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            budget_columns(0.0)

    def test_remaining_never_negative(self):
        # 0.3 - 0.1 - 0.1 - 0.1 rounds to -2.8e-17 in the column; the
        # engine's read-only view clamps it, so the disclosed loss
        # (budget - remaining) never exceeds the budget.
        table = SegmentTable(k_m=0, k_M=8, segments=(Segment(0, 0.1),))
        eng = BudgetEngine(table, budget=0.3, cache_on_exhaustion=False)
        rule = SlotCharge(*eng.slot, eng.table)
        for _ in range(3):
            assert rule.charge(np.asarray([4])).charged[0] == 0.1
        assert eng.slot[0][0] < 0.0
        assert eng.remaining == 0.0
        with pytest.raises(BudgetExhaustedError):
            rule.charge(np.asarray([4]))
        assert eng.remaining >= 0.0

    def test_device_remaining_never_negative(self):
        mech = make_mechanism("thresholding", SensorSpec(0.0, 8.0), 0.5, input_bits=10)
        dev = Device("d", mech, budget=3 * mech.claimed_loss_bound)
        for epoch in range(5):
            dev.report(4.0, epoch)
            assert dev.remaining_budget >= 0.0
