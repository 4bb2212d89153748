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

The multi-epoch decode (``support_counts_epochs``) must equal one
reference call per epoch on that epoch's reporting users, over 1, 3, 8
and 64 epochs with random dropout masks, an epoch in which nobody
reports and a user who never reports; its hash ranges add 255, 256 and
300, where the no-report sentinel ``g`` widens the report matrix past
``uint8``.
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


def _epoch_matrix(data_seed, g, n_epochs, n, blank_epoch, silent_user, narrow):
    """``(reports, reporting)``: an ``(E, n)`` report matrix with ``g``
    where the random dropout mask says a user sent nothing."""
    rng = np.random.default_rng(data_seed + 2)
    reporting = rng.random((n_epochs, n)) < rng.uniform(0.05, 1.0)
    if blank_epoch:
        reporting[rng.integers(n_epochs)] = False
    if silent_user and n:
        reporting[:, rng.integers(n)] = False
    reports = np.where(reporting, rng.integers(0, g, size=(n_epochs, n)), g)
    return reports.astype(np.min_scalar_type(g) if narrow else np.int64), reporting


#: (epochs, users) pairs: every epoch count, and users around the block
#: boundary only where the per-epoch reference stays cheap.
epoch_shapes = st.one_of(
    st.tuples(st.sampled_from([1, 3, 8, 64]), st.integers(min_value=0, max_value=48)),
    st.tuples(st.sampled_from([1, 3]), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1])),
)


@settings(max_examples=30, deadline=None)
@given(
    shape=epoch_shapes,
    g=st.sampled_from([2, 3, 7, 8, 11, 64, 255, 256, 300]),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    explicit=st.booleans(),
    blank_epoch=st.booleans(),
    silent_user=st.booleans(),
    narrow=st.booleans(),
    data_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_epoch_decode_matches_one_reference_call_per_epoch(
    shape, g, seed, explicit, blank_epoch, silent_user, narrow, data_seed
):
    n_epochs, n = shape
    # The reference hashes every user once per candidate per epoch:
    # keep d small where the epochs are many or the users are.
    d = 3 if n > 48 else min(300, 2400 // n_epochs)
    oracle = OptimizedLocalHashing(
        d, 1.0, g=g, hash_seed=seed, source=SplitStreamSource(0)
    )
    offset = _offset(data_seed, n, explicit)
    reports, reporting = _epoch_matrix(
        data_seed, g, n_epochs, n, blank_epoch, silent_user, narrow
    )
    counts = oracle.support_counts_epochs(reports, user_offset=offset)
    assert counts.dtype == np.int64 and counts.shape == (n_epochs, d)
    idx = _resolve_user_indices(n, offset)
    for e in range(n_epochs):
        mask = reporting[e]
        np.testing.assert_array_equal(
            counts[e], _reference(oracle, reports[e][mask].astype(np.int64), idx[mask])
        )
