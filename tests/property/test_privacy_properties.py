"""Property-based tests: privacy-loss invariants of the analyzer."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BudgetEngine, Segment, SegmentTable
from repro.errors import BudgetExhaustedError
from repro.privacy import pointwise_loss
from repro.runtime import SlotCharge
from repro.privacy.loss import DiscreteMechanismFamily
from repro.rng import DiscretePMF


@st.composite
def noise_pmfs(draw):
    """Strictly positive symmetric noise (guaranteed finite baseline loss)."""
    half = draw(
        st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=10)
    )
    probs = np.array(half[::-1] + [draw(st.integers(1, 100))] + half, dtype=float)
    return DiscretePMF(step=1.0, min_k=-len(half), probs=probs / probs.sum())


@given(p1=st.floats(0, 1), p2=st.floats(0, 1))
def test_pointwise_loss_antisymmetric(p1, p2):
    a = pointwise_loss(p1, p2)
    b = pointwise_loss(p2, p1)
    if math.isfinite(a):
        assert abs(a + b) < 1e-12 or (a == 0 and b == 0)
    else:
        assert not math.isfinite(b)


@settings(max_examples=60)
@given(noise=noise_pmfs(), span=st.integers(min_value=1, max_value=4))
def test_guards_never_increase_window_mass_invariants(noise, span):
    codes = [0, span]
    window = (noise.min_k, span + noise.max_k)
    resample = DiscreteMechanismFamily.additive(noise, codes, window=window, mode="resample")
    threshold = DiscreteMechanismFamily.additive(noise, codes, window=window, mode="threshold")
    np.testing.assert_allclose(resample.matrix.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(threshold.matrix.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=60)
@given(noise=noise_pmfs(), span=st.integers(min_value=1, max_value=4))
def test_adding_interior_inputs_never_raises_worst_loss(noise, span):
    """The endpoints dominate: refining the input grid keeps the sup."""
    window = (noise.min_k - 1, span + noise.max_k + 1)
    ends = DiscreteMechanismFamily.additive(
        noise, [0, span], window=window, mode="threshold"
    )
    if span >= 2:
        dense = DiscreteMechanismFamily.additive(
            noise, list(range(span + 1)), window=window, mode="threshold"
        )
        l_ends = ends.worst_case_loss().worst_loss
        l_dense = dense.worst_case_loss().worst_loss
        # Interior inputs can only add pairs with *smaller* separation.
        assert l_dense <= l_ends + 1e-9 or (
            math.isinf(l_ends) and math.isinf(l_dense)
        )


@settings(max_examples=40)
@given(noise=noise_pmfs(), span=st.integers(min_value=1, max_value=3))
def test_wider_threshold_window_never_decreases_loss(noise, span):
    codes = [0, span]
    losses = []
    for extra in (0, 1, 2):
        window = (-extra, span + extra)
        fam = DiscreteMechanismFamily.additive(
            noise, codes, window=window, mode="threshold"
        )
        losses.append(fam.worst_case_loss().worst_loss)
    finite = [l for l in losses if math.isfinite(l)]
    assert finite == sorted(finite)


@given(
    budget=st.floats(min_value=0.1, max_value=100),
    losses=st.lists(st.floats(min_value=0.0, max_value=5.0), max_size=30),
)
def test_accountant_never_overspends(budget, losses):
    # The engine's table is unused here: each charge passes its own flat loss.
    table = SegmentTable(k_m=0, k_M=1, segments=(Segment(0, 1.0),))
    eng = BudgetEngine(table, budget, cache_on_exhaustion=False)
    spent = 0.0
    for loss in losses:
        try:
            spent += SlotCharge(*eng.slot, loss).charge(np.zeros(1)).charged[0]
        except BudgetExhaustedError:
            pass
    assert spent <= budget + 1e-9
    assert eng.remaining >= 0.0
