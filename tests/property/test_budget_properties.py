"""Property-based tests: budget engine safety invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BudgetEngine, Segment, SegmentTable
from repro.runtime import SlotCharge


def submit(eng, k):
    """One DP-Box charge of code ``k`` against the engine's columns."""
    return SlotCharge(*eng.slot, eng.table).charge(np.asarray([k]))


@st.composite
def tables(draw):
    k_M = draw(st.integers(min_value=1, max_value=30))
    n_segments = draw(st.integers(min_value=1, max_value=4))
    offsets = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=60),
                min_size=n_segments,
                max_size=n_segments,
                unique=True,
            )
        )
    )
    losses = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.1, max_value=2.0),
                min_size=n_segments + 1,
                max_size=n_segments + 1,
            )
        )
    )
    segments = [Segment(0, losses[0])] + [
        Segment(off, loss) for off, loss in zip(offsets, losses[1:])
    ]
    return SegmentTable(k_m=0, k_M=k_M, segments=tuple(segments))


@settings(max_examples=60)
@given(
    table=tables(),
    budget=st.floats(min_value=0.5, max_value=50),
    data=st.data(),
)
def test_total_charged_never_exceeds_budget(table, budget, data):
    eng = BudgetEngine(table, budget=budget)
    max_k = table.k_M + table.segments[-1].max_offset_codes
    min_k = table.k_m - table.segments[-1].max_offset_codes
    outputs = data.draw(
        st.lists(st.integers(min_value=min_k, max_value=max_k), max_size=60)
    )
    charged = 0.0
    left = budget  # replays the engine's debits: one subtraction per charge
    for k in outputs:
        try:
            c = submit(eng, k).charged[0]
        except Exception:
            break
        charged += c
        left -= c
    assert charged <= budget + 1e-9
    assert left == eng.slot[0][0]
    assert max(left, 0.0) == eng.remaining


@settings(max_examples=60)
@given(table=tables(), data=st.data())
def test_cached_replies_are_earlier_fresh_outputs(table, data):
    eng = BudgetEngine(table, budget=2.0)
    max_k = table.k_M + table.segments[-1].max_offset_codes
    outputs = data.draw(
        st.lists(st.integers(min_value=table.k_m, max_value=max_k), min_size=1, max_size=60)
    )
    fresh_seen = []
    for k in outputs:
        try:
            d = submit(eng, k)
        except Exception:
            continue
        if d.cache_hits[0]:
            assert d.codes[0] == fresh_seen[-1]
            assert d.charged[0] == 0.0
        else:
            fresh_seen.append(d.codes[0])
            assert d.codes[0] == k


@settings(max_examples=40)
@given(table=tables(), period=st.integers(min_value=1, max_value=1000))
def test_replenishment_count_consistent(table, period):
    eng = BudgetEngine(table, budget=1.0, replenish_period_cycles=period)
    total_cycles = 0
    rng = np.random.default_rng(0)
    for _ in range(10):
        step = int(rng.integers(0, 500))
        eng.advance_cycles(step)
        total_cycles += step
    assert eng.n_replenishments == total_cycles // period
