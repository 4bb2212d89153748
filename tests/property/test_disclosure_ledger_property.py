"""Property test: the two-store disclosure ledger is a plain dict walk.

Random interleavings of per-id charges (``submit``, ``submit_array``),
bulk ``record_claimed_losses`` and dense ``record_report_counts`` over
canonical fleet ids, look-alikes and arbitrary ids must leave the
server with exactly the totals, the tracked-device count and the
dict-store insertion order of a dict charged one id at a time — equal
with ``==``, not approximately, including for losses such as 0.1 whose
sums depend on the order of additions.
"""

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import AggregationServer, fleet_device_id

#: Canonical ids inside and beyond the dense range the counts reach,
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

_op = st.one_of(
    st.tuples(st.just("submit"), _device_id, _loss),
    st.tuples(st.just("submit_array"), st.lists(_device_id, min_size=1, max_size=6), _loss),
    st.tuples(
        st.just("record_claimed_losses"),
        st.dictionaries(_device_id, _loss, max_size=5),
    ),
    st.tuples(
        st.just("record_report_counts"),
        st.lists(st.integers(min_value=0, max_value=3), max_size=10),
        _loss,
    ),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_op, min_size=1, max_size=12))
def test_ledger_matches_plain_dict(ops):
    server = AggregationServer(streaming=True)
    oracle = {}
    dense_n = 0

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
            _, ids, loss = op
            server.submit_array(0, np.zeros(len(ids)), loss, device_ids=ids)
            for device_id in ids:
                charge(device_id, loss)
        elif kind == "record_claimed_losses":
            server.record_claimed_losses(op[1])
            for device_id, loss in op[1].items():
                charge(device_id, float(loss))
        else:
            _, counts, loss = op
            server.record_report_counts(np.asarray(counts, dtype=np.int64), loss)
            for i, c in enumerate(counts):
                if c:
                    charge(fleet_device_id(i), float(c) * loss)
            dense_n = max(dense_n, len(counts))

    dense_ids = {fleet_device_id(i) for i in range(dense_n)}
    expected = [(k, v) for k, v in oracle.items() if k not in dense_ids] + [
        (fleet_device_id(i), oracle[fleet_device_id(i)])
        for i in range(dense_n)
        if fleet_device_id(i) in oracle
    ]
    assert list(server.ledger.items()) == expected
    n_tracked = server.snapshot()["n_devices_tracked"]
    assert n_tracked == len(oracle)
    assert type(n_tracked) is int
    for device_id in _IDS:
        assert server.worst_case_disclosure(device_id) == oracle.get(device_id, 0.0)

