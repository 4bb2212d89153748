"""Property tests: the columnar guard chain is the scalar chain.

Three equivalences, each over adversarially generated batch sequences:

* **Representation**: for any batch expressible on the binary wire,
  ``GuardChain.check_array`` on the columnar request and
  ``GuardChain.check`` on the equivalent scalar request return the
  same verdict, guard, reason, delta and warnings; the canonical
  requests agree report-for-report; and after committing admitted
  outcomes the two chains' internal state — budget LRU contents *and
  order*, per-epoch rate counts and their first-seen order — is
  identical.
* **Budget LRU oracle**: the budget guard's slot columns (spend charged
  with ``np.add.at``, eviction by last-charge stamp) hold exactly the
  state of the per-id pop/reinsert/evict dict walk, including eviction
  victims and their order.
* **Rate-count oracle**: the rate guard's count columns keep/drop the
  same report indices and commit the same per-epoch counts, in the
  same order, as the naive per-report dict walk.
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

# Small id pool so batches collide within and across batches: repairs,
# budget exhaustion and LRU eviction all actually happen.
_device_id = st.sampled_from(
    ["a", "b", "cc", "d0", "èé", "dev-1", "x" * 12]
)

_value = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.just(float("nan")),
    st.just(float("inf")),
)


@st.composite
def batches(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    return {
        "epoch": draw(st.integers(min_value=0, max_value=3)),
        "device_ids": draw(
            st.lists(_device_id, min_size=n, max_size=n)
        ),
        "values": draw(st.lists(_value, min_size=n, max_size=n)),
        "claimed_loss": draw(
            st.sampled_from([0.5, 1.0, 3.0, 9.0, 17.0])
        ),
    }


@st.composite
def chain_configs(draw):
    return {
        "coerce": draw(st.booleans()),
        "max_claimed_loss": 16.0,
        "device_budget": draw(st.sampled_from([None, 2.0, 4.0])),
        "per_epoch_limit": draw(st.integers(min_value=1, max_value=2)),
    }


def _scalar_request(batch):
    return {
        "op": "submit",
        "epoch": batch["epoch"],
        "device_ids": list(batch["device_ids"]),
        "values": [float(v) for v in batch["values"]],
        "claimed_loss": batch["claimed_loss"],
    }


def _columnar_request(batch):
    raw = [s.encode("utf-8") for s in batch["device_ids"]]
    width = max(len(r) for r in raw)
    return {
        "op": "submit",
        "epoch": batch["epoch"],
        "device_ids": np.asarray(raw, dtype=f"S{width}"),
        "values": np.asarray(batch["values"], dtype=np.float64),
        "claimed_loss": batch["claimed_loss"],
    }


def _guard(chain, name):
    return next(g for g in chain.guards if g.name == name)


def _final_reports(request):
    """(id, value) pairs of a canonical request, representation-blind."""
    values = request["values"]
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return list(zip(request["device_ids"], [float(v) for v in values]))


@settings(max_examples=60, deadline=None)
@given(config=chain_configs(), seq=st.lists(batches(), min_size=1, max_size=8))
def test_columnar_chain_equivalent_to_scalar(config, seq):
    scalar_chain = default_chain(**config)
    columnar_chain = default_chain(**config)
    for batch in seq:
        s_out = scalar_chain.check(_scalar_request(batch))
        c_out = columnar_chain.check_array(_columnar_request(batch))
        assert c_out.verdict == s_out.verdict
        assert c_out.guard == s_out.guard
        assert c_out.reason == s_out.reason
        assert c_out.delta == s_out.delta
        assert c_out.warnings == s_out.warnings
        if s_out.admitted:
            assert _final_reports(c_out.request) == _final_reports(
                s_out.request
            )
            assert (
                c_out.request["claimed_loss"] == s_out.request["claimed_loss"]
            )
            s_out.commit()
            c_out.commit()
        # Committed state stays in lockstep — values AND order.
        s_budget, c_budget = _guard(scalar_chain, "epoch-budget"), _guard(
            columnar_chain, "epoch-budget"
        )
        assert c_budget.spend_items() == s_budget.spend_items()
        s_rate, c_rate = _guard(scalar_chain, "rate-limit"), _guard(
            columnar_chain, "rate-limit"
        )
        assert c_rate.tracked_epochs() == s_rate.tracked_epochs()
        assert [c_rate.epoch_counts(e) for e in c_rate.tracked_epochs()] == [
            s_rate.epoch_counts(e) for e in s_rate.tracked_epochs()
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
def test_budget_charge_matches_naive_lru_walk(seq):
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
        for device_id in ids:  # the naive pop/reinsert walk
            oracle[device_id] = oracle.pop(device_id, 0.0) + loss
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
    for epoch, ids in seq:
        request = {
            "op": "submit",
            "epoch": epoch,
            "device_ids": list(ids),
            "values": list(range(len(ids))),
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
            assert decision.request["values"] == keep
            final = decision.request
        else:
            assert decision.verdict == Verdict.BLOCK
            continue
        decision.commit(final)
        for device_id, n in pending.items():
            counts[device_id] = counts.get(device_id, 0) + n
        assert dict(guard.epoch_counts(epoch)) == counts
        assert guard.epoch_counts(epoch) == list(counts.items())


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
