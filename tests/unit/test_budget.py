"""Budget engine: Algorithm 1 semantics, caching, replenishment."""

import numpy as np
import pytest

from repro.core import BudgetEngine, Segment, SegmentTable
from repro.errors import BudgetExhaustedError, ConfigurationError
from repro.runtime import SlotCharge


def submit(eng, k):
    """Charge one fresh output code to the engine's columns, as a DP-Box
    Start Noising does; returns ``(code, charged, from_cache)``."""
    out = SlotCharge(*eng.slot, eng.table).charge(np.asarray([k]))
    return int(out.codes[0]), float(out.charged[0]), bool(out.cache_hits[0])


@pytest.fixture()
def table():
    return SegmentTable(
        k_m=0,
        k_M=10,
        segments=(Segment(0, 0.5), Segment(4, 0.75), Segment(10, 1.0)),
    )


class TestCharging:
    def test_in_range_charge(self, table):
        eng = BudgetEngine(table, budget=2.0)
        _, charged, from_cache = submit(eng, 5)
        assert charged == 0.5
        assert not from_cache
        assert eng.remaining == 1.5

    def test_far_output_charged_more(self, table):
        eng = BudgetEngine(table, budget=2.0)
        assert submit(eng, 13)[1] == 0.75  # offset 3 <= 4
        assert submit(eng, -8)[1] == 1.0  # offset 8 <= 10

    def test_adaptive_charging_beats_flat_worst_case(self, table):
        # Algorithm 1's point: central outputs cost less, so the budget
        # lasts longer than worst-case counting would allow.
        eng = BudgetEngine(table, budget=2.0)
        replies = [submit(eng, 5) for _ in range(4)]
        assert not any(from_cache for _, _, from_cache in replies)  # 4 > 2.0/1.0 worst case


class TestCaching:
    def test_cache_replays_last_fresh_output(self, table):
        eng = BudgetEngine(table, budget=1.0)
        first = submit(eng, 3)
        second = submit(eng, 7)
        third = submit(eng, 9)  # budget (1.0) cannot cover another 0.5
        assert not first[2] and not second[2]
        assert third == (7, 0.0, True)

    def test_cache_counts(self, table):
        eng = BudgetEngine(table, budget=1.0)
        hits = [submit(eng, k)[2] for k in (3, 7, 9, 2)]
        assert hits == [False, False, True, True]

    def test_no_cache_raises(self, table):
        eng = BudgetEngine(table, budget=1.0, cache_on_exhaustion=False)
        assert eng.slot[1] is None
        submit(eng, 3)
        submit(eng, 7)
        with pytest.raises(BudgetExhaustedError):
            submit(eng, 9)

    def test_exhausted_before_any_output_raises(self, table):
        eng = BudgetEngine(table, budget=0.1)
        with pytest.raises(BudgetExhaustedError):
            submit(eng, 3)  # 0.5 > 0.1 and nothing cached yet


class TestReplenishment:
    def test_replenish_restores_budget(self, table):
        eng = BudgetEngine(table, budget=1.0, replenish_period_cycles=100)
        submit(eng, 3)
        submit(eng, 7)
        assert submit(eng, 9)[2]  # exhausted: replayed
        eng.advance_cycles(100)
        assert eng.remaining == 1.0
        assert not submit(eng, 9)[2]
        assert eng.n_replenishments == 1

    def test_partial_period_no_replenish(self, table):
        eng = BudgetEngine(table, budget=1.0, replenish_period_cycles=100)
        submit(eng, 3)
        eng.advance_cycles(99)
        assert eng.n_replenishments == 0

    def test_multiple_periods_in_one_advance(self, table):
        eng = BudgetEngine(table, budget=1.0, replenish_period_cycles=10)
        eng.advance_cycles(35)
        assert eng.n_replenishments == 3

    def test_cycles_carry_over(self, table):
        eng = BudgetEngine(table, budget=1.0, replenish_period_cycles=10)
        eng.advance_cycles(9)
        eng.advance_cycles(1)
        assert eng.n_replenishments == 1

    def test_no_period_no_replenish(self, table):
        eng = BudgetEngine(table, budget=1.0)
        eng.advance_cycles(10**6)
        assert eng.n_replenishments == 0


class TestValidation:
    def test_budget_positive(self, table):
        with pytest.raises(ConfigurationError):
            BudgetEngine(table, budget=0.0)

    def test_period_positive(self, table):
        with pytest.raises(ConfigurationError):
            BudgetEngine(table, budget=1.0, replenish_period_cycles=0)
