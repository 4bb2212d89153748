"""The device-id slot table: side-effect-free lookups, appends on
resolve, remapping when batches interleave, and thread safety."""

import sys
import threading

import numpy as np
import pytest

from repro.aggregation import AggregationServer
from repro.aggregation.device_index import DeviceIndex, SlotIds


class TestLookup:
    def test_lookup_allocates_nothing_until_resolved(self):
        index = DeviceIndex()
        ids = index.lookup(["b", "a", "b", "c"])
        assert len(index) == 0
        assert ids.provisional.tolist() == [0, 1, 0, 2]
        assert list(ids) == ["b", "a", "b", "c"]
        assert ids.resolve().tolist() == [0, 1, 0, 2]
        assert [index.id_of(s) for s in range(len(index))] == ["b", "a", "c"]
        assert index.slot_of("c") == 2 and index.slot_of("z") is None

    def test_known_ids_keep_their_slots(self):
        index = DeviceIndex()
        index.intern(["x", "y"])
        ids = index.lookup(["y", "new", "x"])
        assert ids.provisional.tolist() == [1, 2, 0]
        ids.resolve()
        assert len(index) == 3

    def test_interleaved_batches_are_remapped(self):
        index = DeviceIndex()
        first = index.lookup(["p", "q"])
        second = index.lookup(["r", "p"])
        # Both were given provisional slots 0, 1; the second commits first.
        assert second.resolve().tolist() == [0, 1]
        subset = first.take(np.array([1]))
        assert first.resolve().tolist() == [1, 2]
        assert subset.resolve().tolist() == [2]
        assert list(first) == ["p", "q"] and list(subset) == ["q"]
        assert [index.id_of(s) for s in range(3)] == ["r", "p", "q"]

    def test_raw_lookup_decodes_only_unseen_ids(self):
        index = DeviceIndex()
        index.intern(["èé", "a"])
        ids = index.lookup_raw(np.array(["èé".encode(), b"b", b"a"]))
        assert ids.provisional.tolist() == [0, 2, 1]
        assert list(ids) == ["èé", "b", "a"]
        with pytest.raises(UnicodeDecodeError):
            index.lookup_raw(np.array([b"a", b"\xff"]))
        assert len(index) == 2

    def test_ids_met_on_either_wire_share_one_slot(self):
        index = DeviceIndex()
        index.lookup_raw(np.array([b"bin", b"both"])).resolve()
        assert index.slot_of("bin") == 0 and index.slot_of("nope") is None
        assert index.lookup(["both", "new"]).provisional.tolist() == [1, 2]
        index.intern(["str"])
        both = index.lookup_raw(np.array([b"str", b"bin"]))
        assert both.provisional.tolist() == [2, 0]
        assert len(index) == 3

    def test_lone_surrogate_never_matches_raw_bytes(self):
        index = DeviceIndex()
        index.intern(["\ud800"])
        with pytest.raises(UnicodeDecodeError):
            index.lookup_raw(np.array(["\ud800".encode("utf-8", "surrogatepass")]))

    def test_slot_ids_behave_as_the_id_list(self):
        index = DeviceIndex()
        ids = index.lookup(["a", "b", "a"])
        assert ids == ["a", "b", "a"] and ids == ("a", "b", "a")
        assert ids != ["a", "b"] and ids != "aba"
        assert ids[1] == "b" and ids[1:] == ["b", "a"]
        assert not ids.distinct and ids.take(np.array([0, 1])).distinct
        assert isinstance(ids.take(np.array([2])), SlotIds)


class TestLedgerSlots:
    def test_foreign_table_charges_like_str_ids(self):
        chain_table = DeviceIndex()
        chain_table.intern(["z"])  # offsets the two tables' slots
        batches = [["a", "b", "a"], ["c", "b"], ["a"]]
        by_slots, by_str = AggregationServer(streaming=True), AggregationServer(
            streaming=True
        )
        for ids in batches:
            slot_ids = chain_table.lookup(ids)
            slot_ids.resolve()
            by_slots.submit_array(0, np.zeros(len(ids)), 0.1, device_ids=slot_ids)
            by_str.submit_array(0, np.zeros(len(ids)), 0.1, device_ids=ids)
        assert list(by_slots.ledger.items()) == list(by_str.ledger.items())
        assert by_slots.snapshot() == by_str.snapshot()

    def test_shared_table_needs_no_interning(self):
        server = AggregationServer(streaming=True)
        table = server.ledger.device_index
        ids = table.lookup(["a", "b"])
        ids.resolve()
        server.submit_array(0, np.zeros(2), 1.0, device_ids=ids)
        assert len(table) == 2
        assert server.worst_case_disclosure("b") == 1.0


def test_concurrent_interning_gives_each_id_one_slot():
    index = DeviceIndex()
    names = [f"d{i}" for i in range(400)]
    errors = []

    def worker(seed):
        try:
            order = np.random.default_rng(seed).permutation(len(names))
            for start in range(0, len(order), 7):
                batch = [names[i] for i in order[start:start + 7]]
                if seed % 2:  # half the threads meet the ids as bytes
                    column = np.array([name.encode() for name in batch])
                    slots = index.lookup_raw(column).resolve()
                else:
                    slots = index.lookup(batch).resolve()
                assert [index.id_of(s) for s in slots.tolist()] == batch
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(index) == len(names)
    assert sorted(index.id_of(s) for s in range(len(index))) == sorted(names)
    assert all(index.id_of(index.slot_of(n)) == n for n in names)


def test_raw_lookups_stay_exact_while_the_table_grows():
    index = DeviceIndex()
    known = [f"k{i}" for i in range(300)]
    index.intern(known)
    column = np.array([k.encode() for k in known])
    errors = []

    def grow():
        try:
            for start in range(0, 3000, 50):
                batch = range(start, start + 50)
                index.intern([f"long-device-name-{i}" for i in batch])
        except Exception as exc:  # reported below
            errors.append(exc)

    def probe():
        try:
            for _ in range(200):
                assert list(index.lookup_raw(column)) == known
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow)] + [
            threading.Thread(target=probe) for _ in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(index) == 3300
