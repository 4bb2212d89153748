"""The spend-or-replay rule against a sequential per-code reference.

``SlotCharge`` decides a whole batch at once over slot columns.  The
reference below is the per-code loop it replaced (a spent-sum
accountant plus a one-code cache per budget), kept here only as an
oracle: on every batch that charges one code per slot, the two must
agree exactly on codes, charges, cache hits and refusals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Segment, SegmentTable
from repro.errors import BudgetExhaustedError
from repro.runtime import SlotCharge

TABLE = SegmentTable(
    k_m=0, k_M=10, segments=(Segment(0, 0.3), Segment(4, 0.45), Segment(12, 0.7))
)


class Reference:
    """One budget, one cached code, charged code by code."""

    def __init__(self, budget, cache):
        self.budget, self.spent, self.cache = budget, 0.0, cache
        self.code = None

    @property
    def remaining(self):
        return max(self.budget - self.spent, 0.0)

    def charge(self, k, loss):
        if loss <= self.remaining + 1e-12:
            self.spent += loss
            self.code = k
            return k, loss, False
        if self.cache and self.code is not None:
            return self.code, 0.0, True
        raise BudgetExhaustedError("refused")


def loss_of(table, k):
    return float(TABLE.losses_for_outputs(np.array([k]))[0]) if table else 0.35


@settings(max_examples=150, deadline=None)
@given(
    n_slots=st.integers(1, 5),
    budget=st.floats(0.2, 4.0),
    table=st.booleans(),
    cache=st.booleans(),
    data=st.data(),
)
def test_one_code_per_slot_matches_the_sequential_loop(n_slots, budget, table, cache, data):
    remaining = np.full(n_slots, budget)
    cached = np.full(n_slots, np.nan) if cache else None
    refs = [Reference(budget, cache) for _ in range(n_slots)]
    batches = data.draw(st.lists(
        st.lists(st.tuples(st.integers(0, n_slots - 1), st.integers(-12, 22)),
                 min_size=1, max_size=n_slots, unique_by=lambda t: t[0]),
        max_size=25,
    ))
    for batch in batches:
        slots = np.array([s for s, _ in batch], dtype=np.intp)
        codes = np.array([k for _, k in batch], dtype=np.int64)
        rule = SlotCharge(remaining, cached, TABLE if table else 0.35, slots=slots)
        before = (remaining.copy(), None if cached is None else cached.copy())
        try:
            expected = [refs[s].charge(int(k), loss_of(table, int(k))) for s, k in batch]
        except BudgetExhaustedError:
            with pytest.raises(BudgetExhaustedError):
                rule.charge(codes)
            # Refused whole: no column was written.
            assert np.array_equal(remaining, before[0])
            assert cached is None or np.array_equal(cached, before[1], equal_nan=True)
            return
        out = rule.charge(codes)
        assert out.codes.tolist() == [k for k, _, _ in expected]
        assert out.charged.tolist() == [c for _, c, _ in expected]
        assert out.cache_hits.tolist() == [h for _, _, h in expected]
        for s, ref in enumerate(refs):
            assert math.isclose(remaining[s], ref.remaining, abs_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    budget=st.floats(0.2, 4.0),
    codes=st.lists(st.integers(-12, 22), min_size=1, max_size=8),
    table=st.booleans(),
    cache=st.sampled_from([None, 5.0]),
)
def test_a_repeated_slot_is_all_or_refuse(budget, codes, table, cache):
    remaining = np.array([budget])
    cached = None if cache is None else np.array([cache])
    codes = np.asarray(codes, dtype=np.int64)
    due = sum(loss_of(table, int(k)) for k in codes)
    rule = SlotCharge(remaining, cached, TABLE if table else 0.35)
    if due <= budget + 1e-12:
        out = rule.charge(codes)
        assert not out.cache_hits.any()
        assert out.codes.tolist() == codes.tolist()
        assert math.isclose(remaining[0], budget - due, abs_tol=1e-12)
        if cached is not None:
            assert cached[0] == codes[-1]
    elif cached is not None:
        out = rule.charge(codes)
        assert out.cache_hits.all() and (out.codes == 5).all()
        assert out.charged.sum() == 0.0 and remaining[0] == budget
    else:
        with pytest.raises(BudgetExhaustedError):
            rule.charge(codes)
        assert remaining[0] == budget
