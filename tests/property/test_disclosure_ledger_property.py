"""Property tests: the one-column disclosure ledger is a plain dict walk.

Random sequences of per-id charges (``submit``, ``submit_array`` with
``str`` ids or another table's slots, ``record_claimed_losses``) over
canonical fleet ids, look-alikes and arbitrary ids, and random sequences
of ``record_report_counts``, must each leave the server with exactly the
totals, the tracked-device count and the order of a dict charged one id
at a time — equal with ``==``, not approximately, including for losses
such as 0.1 whose sums depend on the order of additions.  A charge of
the other kind must raise and change nothing.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import AggregationServer, fleet_device_id
from repro.aggregation.device_index import DeviceIndex
from repro.errors import ConfigurationError

#: Canonical ids inside and beyond the range the counts reach,
#: look-alikes that ``int()`` would parse to the same index, and others.
_IDS = [fleet_device_id(i) for i in range(8)] + [
    "dev-0012",
    "dev-999999999",
    "dev-000",
    "dev-00001",
    "dev-٠٠٠١",
    "dev-1",
    "a",
    "èé",
]
_device_id = st.sampled_from(_IDS)
_loss = st.sampled_from([0.0, 0.1, 0.5, 1.0 / 3.0, 2.0, math.inf])

_per_id_op = st.one_of(
    st.tuples(st.just("submit"), _device_id, _loss),
    st.tuples(
        st.just("submit_array"),
        st.lists(_device_id, min_size=1, max_size=6),
        _loss,
        st.booleans(),
    ),
    st.tuples(
        st.just("record_claimed_losses"),
        st.dictionaries(_device_id, _loss, max_size=5),
    ),
)
_counts_op = st.tuples(
    st.lists(st.integers(min_value=0, max_value=3), max_size=10), _loss
)


def _apply_per_id(server, ops, foreign):
    """Run per-id ``ops`` on ``server``; return the dict-walk oracle."""
    oracle = {}

    def charge(device_id, loss):
        oracle[device_id] = oracle.get(device_id, 0.0) + loss

    for op in ops:
        kind = op[0]
        if kind == "submit":
            _, device_id, loss = op
            # Report refuses a zero loss; the ledger tracks the device.
            server.submit(
                SimpleNamespace(device_id=device_id, epoch=0, value=0.0, claimed_loss=loss)
            )
            charge(device_id, loss)
        elif kind == "submit_array":
            _, ids, loss, as_slots = op
            # Slots of another table take the ledger's slot-to-slot map.
            batch = foreign.lookup(ids) if as_slots else ids
            server.submit_array(0, np.zeros(len(ids)), loss, device_ids=batch)
            for device_id in ids:
                charge(device_id, loss)
        else:
            server.record_claimed_losses(op[1])
            for device_id, loss in op[1].items():
                charge(device_id, float(loss))
    return oracle


def _apply_counts(server, ops):
    """Run ``record_report_counts`` ``ops``; return the dict-walk oracle."""
    oracle = {}
    for counts, loss in ops:
        server.record_report_counts(np.asarray(counts, dtype=np.int64), loss)
        for i, c in enumerate(counts):
            if c:
                device_id = fleet_device_id(i)
                oracle[device_id] = oracle.get(device_id, 0.0) + float(c) * loss
    return oracle


def _assert_matches(server, expected):
    assert list(server.ledger.items()) == expected
    n_tracked = server.snapshot()["n_devices_tracked"]
    assert n_tracked == len(expected)
    assert type(n_tracked) is int
    totals = dict(expected)
    for device_id in _IDS:
        assert server.worst_case_disclosure(device_id) == totals.get(device_id, 0.0)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_per_id_op, min_size=1, max_size=12))
def test_per_id_charges_match_plain_dict(ops):
    server = AggregationServer(streaming=True)
    oracle = _apply_per_id(server, ops, DeviceIndex())
    # Slot order is the order the ids were first charged.
    _assert_matches(server, list(oracle.items()))


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_counts_op, min_size=1, max_size=8))
def test_report_counts_match_plain_dict(ops):
    server = AggregationServer(streaming=True)
    oracle = _apply_counts(server, ops)
    # Fleet order is ascending index.
    _assert_matches(server, sorted(oracle.items(), key=lambda kv: int(kv[0][4:])))


def _cross_kind_calls(fleet_keyed):
    """Every charge of the kind a ``fleet_keyed`` server must refuse."""
    if not fleet_keyed:
        return [lambda s: s.record_report_counts(np.array([1, 0, 2]), 1.0)]
    report = SimpleNamespace(device_id="dev-0000", epoch=0, value=0.0, claimed_loss=1.0)
    return [
        lambda s: s.submit(report),
        lambda s: s.submit_array(5, np.zeros(2), 1.0, device_ids=["dev-0001", "x"]),
        lambda s: s.submit_array(5, np.zeros(1), 1.0, device_ids=["dev-0001"]),
        lambda s: s.submit_counts(5, np.array([1, 1]), 1, 1.0, device_ids=["x"]),
        lambda s: s.record_claimed_losses({"dev-0002": 1.0}),
    ]


@settings(max_examples=100, deadline=None)
@given(
    fleet_keyed=st.booleans(),
    per_id=st.lists(_per_id_op, min_size=1, max_size=6),
    counts=st.lists(_counts_op, min_size=1, max_size=4),
)
def test_cross_kind_charge_raises_and_changes_nothing(fleet_keyed, per_id, counts):
    server = AggregationServer(streaming=True)
    if fleet_keyed:
        _apply_counts(server, counts)
    else:
        _apply_per_id(server, per_id, DeviceIndex())
    items = list(server.ledger.items())
    snapshot = server.snapshot()
    for call in _cross_kind_calls(fleet_keyed):
        with pytest.raises(ConfigurationError):
            call(server)
        assert list(server.ledger.items()) == items
        assert len(server.ledger) == len(items)
        assert server.snapshot() == snapshot
