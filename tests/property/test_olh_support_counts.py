"""Property tests: OLH support counting equals the per-candidate hash.

``OptimizedLocalHashing.support_counts`` walks the candidates with an
add-and-conditional-subtract recurrence over ``uint32`` columns, and
takes each bucket as ``x - (x // g)·g`` with NumPy's scalar-divisor
``floor_divide``, instead of evaluating ``((a·v + b) mod P) mod g`` per
(user, candidate) pair.  These tests pin it to that definition,
evaluated directly through
:meth:`~repro.mechanisms.OptimizedLocalHashing.hash_values`, across
domain sizes, full 64-bit hash seeds, large global user offsets,
unsorted/duplicated explicit index arrays and batch sizes around the
user-block boundary — and check associativity over a split batch, the
property that keeps sharded runs bit-identical.  The hash ranges cover
each branch of the multiply-shift division: powers of two (2, 8, 64),
a divisor whose 32-bit magic number needs the add fix-up (7), other
odd divisors (3, 11) and the ε-derived optimum.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mechanisms import OptimizedLocalHashing
from repro.mechanisms.oracles import _resolve_user_indices
from repro.rng import SplitStreamSource

BLOCK = OptimizedLocalHashing._SUPPORT_BLOCK

oracles = st.builds(
    lambda d, g, eps, seed: OptimizedLocalHashing(
        d, eps, g=g, hash_seed=seed, source=SplitStreamSource(0)
    ),
    d=st.integers(min_value=2, max_value=600),
    g=st.sampled_from([2, 3, 7, 8, 11, 64, None]),
    eps=st.floats(min_value=0.2, max_value=5.0),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
sizes = st.one_of(
    st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]),
    st.integers(min_value=0, max_value=64),
)


def _offset(data_seed, n, explicit):
    """An int offset up to 2**40, or an unsorted index array with repeats."""
    rng = np.random.default_rng(data_seed)
    if not explicit:
        return int(rng.integers(0, 2**40 + 1))
    pool = rng.integers(0, 2**40 + 1, size=n // 2 + 1)
    return rng.choice(pool, size=n)


def _reports(data_seed, oracle, n):
    return np.random.default_rng(data_seed + 1).integers(0, oracle.g, size=n)


def _reference(oracle, reports, user_offset):
    """``c_v = #{i : y_i == h_i(v)}`` straight from the hash definition."""
    idx = _resolve_user_indices(reports.size, user_offset)
    return np.array(
        [
            np.count_nonzero(
                oracle.hash_values(np.full(reports.size, v), idx) == reports
            )
            for v in range(oracle.n_categories)
        ],
        dtype=np.int64,
    )


@settings(max_examples=30, deadline=None)
@given(
    oracle=oracles,
    n=sizes,
    explicit=st.booleans(),
    data_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_kernel_matches_per_candidate_hash(oracle, n, explicit, data_seed):
    offset = _offset(data_seed, n, explicit)
    reports = _reports(data_seed, oracle, n)
    counts = oracle.support_counts(reports, user_offset=offset)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, _reference(oracle, reports, offset))


@settings(max_examples=30, deadline=None)
@given(
    oracle=oracles,
    n=sizes,
    explicit=st.booleans(),
    data_seed=st.integers(min_value=0, max_value=2**32 - 1),
    split=st.floats(min_value=0.0, max_value=1.0),
)
def test_split_batch_counts_sum_to_whole(oracle, n, explicit, data_seed, split):
    offset = _offset(data_seed, n, explicit)
    reports = _reports(data_seed, oracle, n)
    k = int(round(split * n))
    if explicit:
        head_off, tail_off = offset[:k], offset[k:]
    else:
        head_off, tail_off = offset, offset + k
    parts = oracle.support_counts(
        reports[:k], user_offset=head_off
    ) + oracle.support_counts(reports[k:], user_offset=tail_off)
    np.testing.assert_array_equal(
        parts, oracle.support_counts(reports, user_offset=offset)
    )
