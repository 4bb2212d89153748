"""Property tests: the guard chain's admission trichotomy.

For *any* request — well-formed, hostile, or garbage — the chain's
outcome is exactly one of:

* **admitted** — the final request is the input request (modulo nothing:
  no delta, no dropped reports);
* **repaired** — the final request differs, and *every* difference is
  recorded in the delta (coercions named, dropped reports named
  one delta entry per drop);
* **blocked** — nothing proceeds, and the reason + deciding guard are
  recorded.

No fourth outcome, no silent drops, no crash: guards must never raise
on untrusted content (raising would turn a content decision into a
connection error, outside the audit trail).  Determinism rides along:
the same request sequence produces the same verdicts on a fresh chain.
And whatever the chain admits never pushes a device's charged spend
past ``device_budget``, even when one batch names a device repeatedly.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import default_chain

# Values a hostile or buggy device might put in each slot.
_scalar_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.just(10**400),  # past float range: float() raises OverflowError
    st.just(-(10**400)),
)

_value_entry = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.text(max_size=8),  # sometimes numeric strings -> repair
    st.none(),
    st.just(10**400),
    st.just(-(10**400)),
)

_device_id = st.one_of(
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")), max_size=6
    ),
    st.just(""),
    st.integers(min_value=0, max_value=9),
)


@st.composite
def submit_requests(draw):
    """Mostly-plausible submit requests with adversarial mutations."""
    n = draw(st.integers(min_value=0, max_value=6))
    request = {
        "op": draw(st.sampled_from(["submit", "submit_counts", "noise"])),
        "epoch": draw(
            st.one_of(
                st.integers(min_value=-3, max_value=2_000_000),
                st.floats(min_value=-2.0, max_value=10.0),
                _scalar_junk,
            )
        ),
        "device_ids": draw(
            st.one_of(
                st.lists(_device_id, min_size=n, max_size=n),
                st.lists(_device_id, max_size=4),
                _scalar_junk,
            )
        ),
        "values": draw(
            st.one_of(st.lists(_value_entry, min_size=n, max_size=n), _scalar_junk)
        ),
        "claimed_loss": draw(
            st.one_of(
                st.floats(min_value=-1.0, max_value=32.0),
                st.just("1.5"),
                _scalar_junk,
            )
        ),
    }
    if request["op"] == "submit_counts":
        request.pop("device_ids")
        request.pop("values")
        request["counts"] = draw(
            st.one_of(
                st.lists(
                    st.integers(min_value=-2, max_value=50), max_size=5
                ),
                _scalar_junk,
            )
        )
        request["n_reports"] = draw(
            st.one_of(st.integers(min_value=-1, max_value=100), _scalar_junk)
        )
    if draw(st.booleans()):
        request[draw(st.sampled_from(["debug", "extra", "op2"]))] = draw(
            _scalar_junk
        )
    return request


_SUBMIT = {"op": "submit", "epoch": 0, "device_ids": ["a", "b"],
           "values": [1.0, 2.0], "claimed_loss": 1.0}


@given(request=submit_requests())
@example(request={**_SUBMIT, "values": [1.0, 10**400]})
@example(request={**_SUBMIT, "values": [-(10**400), "2.5"]})
@example(request={**_SUBMIT, "claimed_loss": 10**400})
@settings(max_examples=300, deadline=None)
def test_trichotomy_no_silent_drops(request):
    outcome = default_chain().check(dict(request))

    assert outcome.verdict in ("admitted", "repaired", "blocked")

    if outcome.verdict == "blocked":
        assert not outcome.admitted
        assert outcome.reason, "a BLOCK must carry its reason"
        assert outcome.guard != "chain", "a BLOCK names the deciding guard"
        return

    assert outcome.admitted
    final = outcome.request
    if outcome.verdict == "admitted":
        # Fully admitted: the batch went through untouched.
        assert outcome.delta == ()
        if request["op"] == "submit":
            assert final["values"].tolist() == [float(v) for v in request["values"]]
            assert final["device_ids"] == list(request["device_ids"])
    else:
        # Repaired: every change is on the record.
        assert outcome.delta, "a REPAIR must record its delta"
        if request["op"] == "submit":
            # Dropped reports are named one delta entry per drop.
            n_dropped = len(request["values"]) - len(final["values"])
            assert n_dropped >= 0
            drops = [e for e in outcome.delta if "dropped" in e]
            assert len(drops) >= n_dropped
            assert len(final["values"]) >= 1, "empty repairs must BLOCK"

    # Whatever was admitted is exactly typed for the fold.
    assert isinstance(final["epoch"], int) and final["epoch"] >= 0
    assert isinstance(final["claimed_loss"], float) and final["claimed_loss"] > 0
    if request["op"] == "submit":
        assert final["values"].dtype == np.float64
        assert len(final["device_ids"]) == len(final["values"])
    else:
        assert final["counts"].dtype == np.int64
        assert isinstance(final["n_reports"], int) and final["n_reports"] >= 1


def _plain(request):
    """``request`` with its numpy columns as lists, comparable with ==."""
    return {
        k: v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in request.items()
    }


@given(requests=st.lists(submit_requests(), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_admission_trace_is_deterministic(requests):
    # Two fresh chains fed the same sequence agree decision-for-decision
    # (guards are deterministic state machines: replayable admissions).
    # Admitted outcomes are committed — state evolves exactly as it
    # would on the server once each batch lands in the queue.
    a_chain = default_chain()
    b_chain = default_chain()
    for request in requests:
        a = a_chain.check(dict(request))
        b = b_chain.check(dict(request))
        assert a.verdict == b.verdict
        assert a.guard == b.guard
        assert a.reason == b.reason
        assert a.delta == b.delta
        assert _plain(a.request) == _plain(b.request)
        if a.admitted:
            a.commit()
            b.commit()


@given(requests=st.lists(submit_requests(), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_uncommitted_checks_never_change_later_verdicts(requests):
    # check() is side-effect-free: any number of refused (uncommitted)
    # admission attempts leaves the chain ruling exactly like a chain
    # that never saw them — the busy-retry contract, property-grade.
    probed = default_chain()
    fresh = default_chain()
    for request in requests:
        probed.check(dict(request))  # e.g. answered busy; never enqueued
    for request in requests:
        a = probed.check(dict(request))
        b = fresh.check(dict(request))
        assert (a.verdict, a.guard, a.reason, a.delta) == (
            b.verdict, b.guard, b.reason, b.delta
        )


@given(
    budget=st.sampled_from([1.0, 2.5, 10.0]),
    limit=st.integers(min_value=1, max_value=4),
    seq=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.lists(st.sampled_from(["a", "b", "c", "dd"]), min_size=1, max_size=8),
            st.sampled_from([0.1, 1.0 / 3.0, 0.5, 1.0, 4.0]),
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=150, deadline=None)
def test_admitted_spend_never_exceeds_the_budget(budget, limit, seq):
    # Whatever the chain admits, no device's charged spend passes the
    # budget — also when one batch names a device several times.
    chain = default_chain(device_budget=budget, per_epoch_limit=limit)
    guard = next(g for g in chain.guards if g.name == "epoch-budget")
    charged = {}
    for epoch, ids, loss in seq:
        outcome = chain.check(
            {
                "op": "submit",
                "epoch": epoch,
                "device_ids": list(ids),
                "values": [0.0] * len(ids),
                "claimed_loss": loss,
            }
        )
        if outcome.admitted:
            outcome.commit()
            for device_id in outcome.request["device_ids"]:
                charged[device_id] = charged.get(device_id, 0.0) + loss
        assert all(spend <= budget + 1e-12 for _, spend in guard.spend_items())
        assert dict(guard.spend_items()) == charged
