"""Property tests: both wires get the same admission ruling.

Four statements, each over adversarially generated batch sequences:

* **Wire equivalence**: a batch encoded as a JSONL line and decoded by
  ``decode_line``, and the same batch encoded as a binary frame and
  decoded by ``decode_binary_frame`` — ``submit`` and ``submit_counts``
  batches, counts whose int64 sum wraps included — get from
  ``GuardChain.check`` the same verdict, guard, reason, delta and
  warnings; admitted requests agree report for report; and after
  committing admitted outcomes the two chains' budget spend and
  per-epoch rate counts, values *and* order, are identical.
* **Budget oracle**: the budget guard's slot column (spend charged with
  ``np.add.at``) holds exactly the per-id dict walk, devices in the
  order they were first charged.
* **Rate-count oracle**: the rate guard's count columns keep/drop the
  same report indices and commit the same per-epoch counts, in the
  same order, as the naive per-report dict walk.
* **Disclosure oracle**: the ledger charges what the per-id walk does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import AggregationServer
from repro.service.guards import (
    EpochBudgetGuard,
    RateLimitGuard,
    Verdict,
    default_chain,
)
from repro.service.protocol import (
    decode_binary_frame,
    decode_line,
    encode,
    encode_binary_counts,
    encode_binary_submit,
)

# Small id pool so batches collide within and across batches: repairs
# and budget exhaustion actually happen.
_device_id = st.sampled_from(
    ["a", "b", "cc", "d0", "èé", "dev-1", "x" * 12]
)

_value = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.just(float("nan")),
    st.just(float("inf")),
)

_loss = st.sampled_from([0.5, 1.0, 3.0, 9.0, 17.0])


@st.composite
def submits(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return {
        "op": "submit",
        "epoch": draw(st.integers(min_value=0, max_value=3)),
        "device_ids": draw(st.lists(_device_id, min_size=n, max_size=n)),
        "values": draw(st.lists(_value, min_size=n, max_size=n)),
        "claimed_loss": draw(_loss),
    }


@st.composite
def counts_batches(draw):
    return {
        "op": "submit_counts",
        "epoch": draw(st.integers(min_value=0, max_value=3)),
        # 2**62: four of them wrap an int64 sum to 0.
        "counts": draw(
            st.lists(
                st.one_of(st.integers(min_value=-2, max_value=50), st.just(2**62)),
                max_size=5,
            )
        ),
        "n_reports": draw(st.integers(min_value=0, max_value=100)),
        "claimed_loss": draw(_loss),
    }


@st.composite
def chain_configs(draw):
    return {
        "coerce": draw(st.booleans()),
        "max_claimed_loss": 16.0,
        "device_budget": draw(st.sampled_from([None, 2.0, 4.0])),
        "per_epoch_limit": draw(st.integers(min_value=1, max_value=2)),
    }


def _jsonl(batch):
    return decode_line(encode(batch))


def _binary(batch):
    if batch["op"] == "submit":
        frame = encode_binary_submit(
            batch["epoch"], batch["device_ids"], batch["values"],
            batch["claimed_loss"],
        )
    else:
        frame = encode_binary_counts(
            batch["epoch"], batch["counts"], batch["n_reports"],
            batch["claimed_loss"],
        )
    return decode_binary_frame(frame[4:])


def _guard(chain, name):
    return next(g for g in chain.guards if g.name == name)


def _final(request):
    """An admitted request with its numpy columns as lists, comparable
    with == (its ``SlotIds`` compare as the ids they stand for)."""
    return {
        k: v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in request.items()
    }


@settings(max_examples=60, deadline=None)
@given(
    config=chain_configs(),
    seq=st.lists(st.one_of(submits(), counts_batches()), min_size=1, max_size=8),
)
def test_columnar_chain_equivalent_to_scalar(config, seq):
    jsonl_chain = default_chain(**config)
    binary_chain = default_chain(**config)
    for batch in seq:
        j_out = jsonl_chain.check(_jsonl(batch))
        b_out = binary_chain.check(_binary(batch))
        assert b_out.verdict == j_out.verdict
        assert b_out.guard == j_out.guard
        assert b_out.reason == j_out.reason
        assert b_out.delta == j_out.delta
        assert b_out.warnings == j_out.warnings
        if j_out.admitted:
            assert _final(b_out.request) == _final(j_out.request)
            j_out.commit()
            b_out.commit()
        # Committed state stays in lockstep — values AND order.
        j_budget = _guard(jsonl_chain, "epoch-budget")
        b_budget = _guard(binary_chain, "epoch-budget")
        assert b_budget.spend_items() == j_budget.spend_items()
        j_rate = _guard(jsonl_chain, "rate-limit")
        b_rate = _guard(binary_chain, "rate-limit")
        assert b_rate.tracked_epochs() == j_rate.tracked_epochs()
        assert [b_rate.epoch_counts(e) for e in b_rate.tracked_epochs()] == [
            j_rate.epoch_counts(e) for e in j_rate.tracked_epochs()
        ]


@settings(max_examples=80, deadline=None)
@given(
    seq=st.lists(
        st.tuples(
            st.lists(_device_id, min_size=1, max_size=6),
            st.sampled_from([0.5, 1.0, 2.0]),
        ),
        min_size=1,
        max_size=10,
    ),
)
def test_budget_charge_matches_first_seen_walk(seq):
    guard = EpochBudgetGuard(device_budget=1e9)
    oracle = {}
    for ids, loss in seq:
        decision = guard.check(
            {
                "op": "submit",
                "epoch": 0,
                "device_ids": list(ids),
                "values": [0.0] * len(ids),
                "claimed_loss": loss,
            }
        )
        assert decision.verdict in (Verdict.ALLOW, Verdict.WARN)
        decision.commit(
            {"op": "submit", "device_ids": list(ids), "claimed_loss": loss}
        )
        for device_id in ids:  # the naive walk, first-seen order
            oracle[device_id] = oracle.get(device_id, 0.0) + loss
        assert guard.spend_items() == list(oracle.items())


@settings(max_examples=80, deadline=None)
@given(
    seq=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.lists(_device_id, min_size=1, max_size=6),
        ),
        min_size=1,
        max_size=10,
    ),
    limit=st.integers(min_value=1, max_value=2),
)
def test_rate_limit_matches_naive_walk(seq, limit):
    guard = RateLimitGuard(per_epoch_limit=limit)
    oracle = {}
    slot_order = {}  # ids in the order a commit first named them
    for epoch, ids in seq:
        request = {
            "op": "submit",
            "epoch": epoch,
            "device_ids": list(ids),
            "values": np.arange(len(ids), dtype=np.float64),
            "claimed_loss": 1.0,
        }
        decision = guard.check(request)
        # Naive walk: which indices survive, what gets committed.
        counts = oracle.setdefault(epoch, {})
        keep, pending = [], {}
        for i, device_id in enumerate(ids):
            used = counts.get(device_id, 0) + pending.get(device_id, 0)
            if used < limit:
                pending[device_id] = pending.get(device_id, 0) + 1
                keep.append(i)
        if len(keep) == len(ids):
            assert decision.verdict == Verdict.ALLOW
            final = request
        elif keep:
            assert decision.verdict == Verdict.REPAIR
            assert decision.request["device_ids"] == [ids[i] for i in keep]
            assert decision.request["values"].tolist() == keep
            final = decision.request
        else:
            assert decision.verdict == Verdict.BLOCK
            continue
        decision.commit(final)
        for device_id, n in pending.items():
            counts[device_id] = counts.get(device_id, 0) + n
            slot_order.setdefault(device_id, len(slot_order))
        assert dict(guard.epoch_counts(epoch)) == counts
        assert guard.epoch_counts(epoch) == sorted(
            counts.items(), key=lambda item: slot_order[item[0]]
        )


@settings(max_examples=60, deadline=None)
@given(
    seq=st.lists(
        st.tuples(
            st.lists(_device_id, min_size=1, max_size=6),
            st.sampled_from([0.5, 1.0, 2.0]),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_disclosure_charge_matches_naive_walk(seq):
    server = AggregationServer(streaming=True)
    oracle = {}
    for ids, loss in seq:
        server.submit_array(
            0,
            np.zeros(len(ids)),
            loss,
            device_ids=list(ids),
            donate=True,
        )
        for device_id in ids:
            oracle[device_id] = oracle.get(device_id, 0.0) + loss
        assert list(server.ledger.items()) == list(oracle.items())
