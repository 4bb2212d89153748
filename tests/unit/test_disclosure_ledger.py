"""The disclosure ledger: id routing, fail-closed charges, bounded memory.

The property test in ``tests/property/test_disclosure_ledger_property.py``
checks totals against a plain-dict oracle over random interleavings;
these tests pin the individual rules and every rejecting entry point.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.aggregation import (
    AggregationServer,
    DisclosureLedger,
    fleet_device_id,
)
from repro.aggregation.ledger import _canonical_index
from repro.errors import ConfigurationError
from repro.service import IngestClient
from repro.service.server import serve_in_thread


class TestCanonicalIds:
    def test_fleet_device_id_format(self):
        assert fleet_device_id(0) == "dev-0000"
        assert fleet_device_id(42) == "dev-0042"
        assert fleet_device_id(123456) == "dev-123456"

    @pytest.mark.parametrize("i", [0, 7, 42, 9999, 10000, 999_999_999])
    def test_round_trip(self, i):
        assert _canonical_index(fleet_device_id(i)) == i

    @pytest.mark.parametrize(
        "device_id",
        [
            "dev-042",
            "dev-00042",
            "dev-٠٠٤٢",  # Arabic-Indic digits: int() accepts them
            "dev-+042",
            "dev--042",
            "dev-4_2",
            "dev- 042",
            "dev-",
            "Dev-0042",
            "d-0042",
            "dev-0042 ",
            "dev-" + "9" * 5000,  # int() would refuse it with ValueError
            42,
        ],
    )
    def test_look_alikes_are_not_canonical(self, device_id):
        assert _canonical_index(device_id) is None


class TestRouting:
    def test_report_counts_charge_dense_column(self):
        ledger = DisclosureLedger()
        ledger.record_report_counts(np.array([2, 0, 3]), 0.5)
        assert ledger.total("dev-0000") == 1.0
        assert ledger.total("dev-0001") == 0.0
        assert ledger.total("dev-0002") == 1.5
        assert len(ledger) == 2
        assert isinstance(len(ledger), int)
        assert list(ledger.items()) == [("dev-0000", 1.0), ("dev-0002", 1.5)]

    def test_dict_entry_moves_into_column_on_growth(self):
        ledger = DisclosureLedger()
        ledger.charge(["x", "dev-0001", "dev-042"], 0.25)
        ledger.record_report_counts(np.array([1, 2]), 1.0)
        # dev-0001 left the dict store; the look-alike dev-042 did not.
        assert list(ledger.items()) == [
            ("x", 0.25),
            ("dev-042", 0.25),
            ("dev-0000", 1.0),
            ("dev-0001", 2.25),
        ]
        assert len(ledger) == 4

    def test_per_id_charge_inside_range_uses_column(self):
        ledger = DisclosureLedger()
        ledger.record_report_counts(np.array([0, 0, 1]), 1.0)
        ledger.charge(["dev-0001", "dev-0001", "dev-0005"], 0.5)
        assert ledger.total("dev-0001") == 1.0
        assert ledger.total("dev-0005") == 0.5
        assert list(ledger.items()) == [
            ("dev-0005", 0.5),
            ("dev-0001", 1.0),
            ("dev-0002", 1.0),
        ]

    def test_infinite_loss_is_a_valid_charge(self):
        ledger = DisclosureLedger()
        ledger.record_report_counts(np.array([1, 0]), math.inf)
        assert ledger.total("dev-0000") == math.inf
        assert ledger.total("dev-0001") == 0.0
        assert len(ledger) == 1

    @pytest.mark.parametrize(
        "counts", [np.array([[1, 2]]), np.array([1.0, 2.0]), np.array([1, -1])]
    )
    def test_malformed_report_counts_rejected(self, counts):
        ledger = DisclosureLedger()
        with pytest.raises(ConfigurationError):
            ledger.record_report_counts(counts, 1.0)
        assert len(ledger) == 0


class TestBoundedMemory:
    def test_per_id_input_never_grows_dense_store(self):
        server = AggregationServer(streaming=True)
        server.record_report_counts(np.ones(8, dtype=np.int64), 1.0)
        server.submit_array(
            0, np.zeros(2), 1.0, device_ids=["dev-999999999", "dev-0003"]
        )
        server.record_claimed_losses({"dev-99999999": 2.0, "dev-" + "9" * 5000: 1.0})
        assert server.ledger._dense.size == 8
        assert server.worst_case_disclosure("dev-999999999") == 1.0
        assert server.worst_case_disclosure("dev-0003") == 2.0

    def test_service_submit_never_grows_dense_store(self):
        server = AggregationServer(streaming=True)
        server.record_report_counts(np.ones(8, dtype=np.int64), 1.0)
        handle = serve_in_thread(server)
        try:
            with IngestClient(*handle.address) as client:
                reply = client.submit(0, ["dev-999999999", "dev-0003"], [1.0, 2.0], 1.0)
                assert reply["status"] == "admitted"
                deadline = time.monotonic() + 5.0
                while (
                    client.snapshot()["snapshot"]["epochs"].get("0", {}).get("count")
                    != 2
                ):
                    assert time.monotonic() < deadline, "batch never folded"
                    time.sleep(0.005)
        finally:
            handle.stop()
        assert server.ledger._dense.size == 8
        assert server.worst_case_disclosure("dev-999999999") == 1.0
        assert server.worst_case_disclosure("dev-0003") == 2.0
        assert server.snapshot()["n_devices_tracked"] == 9


_BAD_LOSSES = [-1.0, -1e-300, math.nan]


class TestFailClosedLosses:
    """Every ledger entry point rejects a loss that would lower or poison
    a bound, before it folds or charges anything."""

    @pytest.mark.parametrize("loss", _BAD_LOSSES)
    def test_submit(self, loss):
        server = AggregationServer(streaming=True)
        # Report itself refuses a negative loss but not NaN; a duck-typed
        # report reaches the server's own check either way.
        report = SimpleNamespace(device_id="a", epoch=0, value=1.0, claimed_loss=loss)
        with pytest.raises(ConfigurationError):
            server.submit(report)
        assert server.epochs == []
        assert server.snapshot()["n_devices_tracked"] == 0

    @pytest.mark.parametrize("streaming", [False, True])
    @pytest.mark.parametrize("loss", _BAD_LOSSES)
    def test_submit_array(self, loss, streaming):
        server = AggregationServer(streaming=streaming)
        with pytest.raises(ConfigurationError):
            server.submit_array(0, np.ones(2), loss, device_ids=["a", "b"])
        with pytest.raises(ConfigurationError):
            server.submit_array(0, np.ones(2), loss, device_ids=None)
        assert server.epochs == []
        assert server.snapshot()["n_devices_tracked"] == 0

    @pytest.mark.parametrize("loss", _BAD_LOSSES)
    def test_submit_counts(self, loss):
        server = AggregationServer(streaming=True)
        for ids in (["a", "b"], None):
            with pytest.raises(ConfigurationError):
                server.submit_counts(0, np.array([1, 1]), 2, loss, device_ids=ids)
        assert server.categorical_epochs == []
        assert server.snapshot()["n_devices_tracked"] == 0

    @pytest.mark.parametrize("loss", _BAD_LOSSES)
    def test_record_claimed_losses(self, loss):
        server = AggregationServer(streaming=True)
        with pytest.raises(ConfigurationError):
            server.record_claimed_losses({"a": 1.0, "b": loss})
        # The valid entry before the bad one was not charged either.
        assert server.worst_case_disclosure("a") == 0.0
        assert server.snapshot()["n_devices_tracked"] == 0

    @pytest.mark.parametrize("loss", _BAD_LOSSES)
    def test_record_report_counts(self, loss):
        server = AggregationServer(streaming=True)
        with pytest.raises(ConfigurationError):
            server.record_report_counts(np.array([1, 2]), loss)
        assert server.snapshot()["n_devices_tracked"] == 0
        assert server.ledger._dense.size == 0


class TestIdCount:
    """A short id list would under-charge the batch; every charging
    path refuses it before folding anything."""

    @pytest.mark.parametrize("streaming", [False, True])
    @pytest.mark.parametrize("ids", [["a"], ["a", "b", "c"]])
    def test_submit_array(self, ids, streaming):
        server = AggregationServer(streaming=streaming)
        with pytest.raises(ConfigurationError, match="disagree"):
            server.submit_array(0, np.ones(2), 1.0, device_ids=ids)
        assert server.epochs == []
        assert server.snapshot()["n_devices_tracked"] == 0

    @pytest.mark.parametrize("ids", [["a"], ["a", "b", "c"]])
    def test_submit_counts(self, ids):
        server = AggregationServer(streaming=True)
        with pytest.raises(ConfigurationError, match="disagree"):
            server.submit_counts(0, np.array([1, 1]), 2, 1.0, device_ids=ids)
        assert server.categorical_epochs == []
        assert server.snapshot()["n_devices_tracked"] == 0
