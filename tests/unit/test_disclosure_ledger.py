"""The disclosure ledger: its two keys, fail-closed charges, bounded memory.

The property tests in ``tests/property/test_disclosure_ledger_property.py``
check totals against a plain-dict oracle over random charge sequences;
these tests pin the individual rules and every rejecting entry point.
"""

import math
import tracemalloc
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
from repro.service import IngestionService, default_chain
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
    """``record_report_counts`` keys the columns by fleet index."""

    def test_report_counts_charge_dense_column(self):
        ledger = DisclosureLedger()
        ledger.record_report_counts(np.array([2, 0, 3]), 0.5)
        assert ledger.total("dev-0000") == 1.0
        assert ledger.total("dev-0001") == 0.0
        assert ledger.total("dev-0002") == 1.5
        # Look-alikes and indexes past the column are never charged.
        assert ledger.total("dev-002") == 0.0
        assert ledger.total("dev-0003") == 0.0
        assert len(ledger) == 2
        assert isinstance(len(ledger), int)
        assert list(ledger.items()) == [("dev-0000", 1.0), ("dev-0002", 1.5)]

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
        # A refused call does not fix the key either.
        ledger.charge(["a"], 1.0)
        assert list(ledger.items()) == [("a", 1.0)]


class TestKeyRefusal:
    """The first charge fixes the key; the other kind is refused before
    anything changes."""

    @pytest.mark.parametrize(
        "charge",
        [
            lambda s: s.submit(
                SimpleNamespace(device_id="dev-0000", epoch=0, value=1.0, claimed_loss=1.0)
            ),
            lambda s: s.submit_array(0, np.ones(1), 1.0, device_ids=["dev-0000"]),
            lambda s: s.submit_array(0, np.ones(2), 1.0, device_ids=["x", "dev-0001"]),
            lambda s: s.submit_counts(0, np.array([1, 1]), 1, 1.0, device_ids=["x"]),
            lambda s: s.record_claimed_losses({"dev-0000": 1.0}),
        ],
        ids=["submit", "submit_array-1", "submit_array-2", "submit_counts",
             "record_claimed_losses"],
    )
    def test_per_id_charge_of_fleet_keyed_server_raises(self, charge):
        server = AggregationServer(streaming=True)
        server.record_report_counts(np.array([1, 2]), 0.5)
        with pytest.raises(ConfigurationError, match="fleet index"):
            charge(server)
        assert list(server.ledger.items()) == [("dev-0000", 0.5), ("dev-0001", 1.0)]
        assert server.epochs == [] and server.categorical_epochs == []

    def test_report_counts_of_slot_keyed_ledger_raises(self):
        ledger = DisclosureLedger()
        ledger.charge(["dev-0001", "x"], 0.25)
        with pytest.raises(ConfigurationError, match="device slot"):
            ledger.record_report_counts(np.array([1, 2]), 1.0)
        assert list(ledger.items()) == [("dev-0001", 0.25), ("x", 0.25)]
        assert ledger.total("dev-0000") == 0.0

    def test_device_index_of_fleet_keyed_ledger_raises(self):
        ledger = DisclosureLedger()
        assert len(ledger.device_index) == 0  # unkeyed: readable
        ledger.record_report_counts(np.array([1]), 1.0)
        with pytest.raises(ConfigurationError, match="fleet index"):
            ledger.device_index

    def test_serving_fleet_keyed_server_raises(self):
        server = AggregationServer(streaming=True)
        server.record_report_counts(np.ones(8, dtype=np.int64), 1.0)
        with pytest.raises(ConfigurationError, match="fleet index"):
            IngestionService(server)
        with pytest.raises(ConfigurationError, match="fleet index"):
            serve_in_thread(server)
        with pytest.raises(ConfigurationError, match="fleet index"):
            IngestionService(server, chain=default_chain())
        assert server.snapshot()["n_devices_tracked"] == 8


class TestBoundedMemory:
    def test_hostile_canonical_id_sizes_column_by_table(self):
        # A per-id charge takes a slot of the table whatever index its id
        # names, so a billion-device id costs one row, not a billion.
        server = AggregationServer(streaming=True)
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            server.submit_array(
                0, np.zeros(2), 1.0, device_ids=["dev-999999999", "dev-0003"]
            )
            server.record_claimed_losses(
                {"dev-99999999": 2.0, "dev-" + "9" * 5000: 1.0}
            )
            grown = sum(
                stat.size_diff
                for stat in tracemalloc.take_snapshot().compare_to(before, "filename")
            )
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024
        assert len(server.ledger.device_index) == 4
        assert server.worst_case_disclosure("dev-999999999") == 1.0
        assert server.worst_case_disclosure("dev-99999999") == 2.0
        assert server.worst_case_disclosure("dev-0003") == 1.0
        assert server.snapshot()["n_devices_tracked"] == 4


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
        assert len(server.ledger) == 0


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


class TestChargeBeforeFold:
    def test_refused_charge_leaves_counts_unfolded(self):
        server = AggregationServer(streaming=True)
        with pytest.raises(TypeError):
            server.submit_counts(0, np.array([1, 1]), 1, 1.0, device_ids=[["x"]])
        assert server.categorical_epochs == []
        assert server.snapshot()["n_devices_tracked"] == 0
