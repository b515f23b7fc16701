"""Functional and property tests for the B+Tree store."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.block.device import BlockDevice
from repro.btree.config import BTreeConfig
from repro.btree.store import BTreeStore
from repro.core.clock import VirtualClock
from repro.errors import StoreClosedError
from repro.flash.ssd import SSD
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.values import Value, value_for
from tests.conftest import make_tiny_config


def count_keys(store) -> int:
    """Keys in the tree: one scan over the whole key space."""
    return len(store.scan(0, 1 << 40)[1])


def make_store(clock=None, **config_overrides):
    clock = clock or VirtualClock()
    ssd = SSD(make_tiny_config(nblocks=128), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    config = BTreeConfig(
        leaf_page_bytes=2 * 1024,
        cache_bytes=8 * 1024,
        internal_fanout=8,
        journal_ring_bytes=64 * 1024,
        checkpoint_log_bytes=32 * 1024,
        **config_overrides,
    )
    return BTreeStore(fs, clock, config)


class TestBasicOperations:
    def test_put_get_roundtrip(self):
        store = make_store()
        store.put(1, Value(100, 50))
        _lat, value = store.get(1)
        assert value == Value(100, 50)

    def test_get_missing(self):
        store = make_store()
        _lat, value = store.get(5)
        assert value is None

    def test_update_in_place(self):
        store = make_store()
        store.put(1, Value(100, 50))
        store.put(1, Value(200, 70))
        _lat, value = store.get(1)
        assert value == Value(200, 70)

    def test_delete(self):
        store = make_store()
        store.put(1, Value(100, 50))
        store.delete(1)
        _lat, value = store.get(1)
        assert value is None

    def test_delete_missing_is_noop(self):
        store = make_store()
        store.delete(42)
        assert count_keys(store) == 0

    def test_clock_advances(self):
        store = make_store()
        before = store.clock.now
        latency = store.put(1, Value(1, 100))
        assert latency > 0
        assert store.clock.now == pytest.approx(before + latency)

    def test_closed_store_rejects_ops(self):
        store = make_store()
        store.close()
        with pytest.raises(StoreClosedError):
            store.get(1)


class TestTreeGrowth:
    def test_splits_create_multi_level_tree(self):
        store = make_store()
        for key in range(500):
            store.put(key, Value(key, 100))
        store.check_invariants()
        assert store._internal_count > 0
        for key in (0, 250, 499):
            _lat, value = store.get(key)
            assert value == Value(key, 100)

    def test_random_insert_order(self):
        store = make_store()
        keys = [(i * 211) % 500 for i in range(500)]
        for key in keys:
            store.put(key, Value(key, 100))
        store.check_invariants()
        assert count_keys(store) == len(set(keys))

    def test_sequential_load_leaves_nearly_full(self):
        store = make_store()
        for key in range(600):
            store.put(key, Value(key, 100))
        config = store.config
        fills = []
        leaf = store._first_leaf
        while leaf is not None and leaf.next_leaf is not None:  # skip last
            fills.append(leaf.nbytes / config.leaf_page_bytes)
            leaf = leaf.next_leaf
        assert sum(fills) / len(fills) > 0.8  # bulk-load fill factor

    def test_empty_leaf_removed_on_deletes(self):
        store = make_store()
        for key in range(200):
            store.put(key, Value(key, 100))
        for key in range(200):
            store.delete(key)
        store.check_invariants()
        assert count_keys(store) == 0

    def test_cache_eviction_under_pressure(self):
        store = make_store()
        for key in range(1000):
            store.put(key, Value(key, 100))
        assert store.cache._bytes <= store.config.cache_bytes * 2
        assert store.pager.pages_written > 0


class TestScans:
    def test_scan_ordered(self):
        store = make_store()
        for key in (5, 1, 9, 3, 7):
            store.put(key, Value(key, 32))
        _lat, results = store.scan(0, 10)
        assert [k for k, _ in results] == [1, 3, 5, 7, 9]

    def test_scan_across_leaves(self):
        store = make_store()
        for key in range(300):
            store.put(key, Value(key, 100))
        _lat, results = store.scan(50, 100)
        assert [k for k, _ in results] == list(range(50, 150))

    def test_scan_from_middle_of_leaf(self):
        store = make_store()
        for key in range(0, 100, 2):
            store.put(key, Value(key, 32))
        _lat, results = store.scan(31, 3)
        assert [k for k, _ in results] == [32, 34, 36]


class TestDurabilityMechanics:
    def test_checkpoints_triggered_by_log_volume(self):
        store = make_store()
        for key in range(2000):
            store.put(key % 300, value_for(key % 300, key, 100))
        assert store.checkpoints > 0

    def test_journal_footprint_bounded(self):
        store = make_store()
        for key in range(3000):
            store.put(key % 300, value_for(key % 300, key, 100))
        journal_size = store.fs.file_size(BTreeStore.JOURNAL_FILE)
        assert journal_size == store.config.journal_ring_bytes

    def test_write_amplification_flat(self):
        """WA-A must not trend over time (Fig 2d)."""
        store = make_store()
        for key in range(400):
            store.put(key, Value(key, 100))
        device = store.fs.device.ssd
        samples = []
        for round_ in range(4):
            host0 = device.smart.host_bytes_written
            user0 = store.stats.user_bytes_written
            for i in range(500):
                key = (i * 17 + round_) % 400
                store.put(key, value_for(key, i, 100))
            samples.append(
                (device.smart.host_bytes_written - host0)
                / (store.stats.user_bytes_written - user0)
            )
        assert max(samples) < 1.5 * min(samples)


class TestPropertyBased:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "get"]),
                st.integers(0, 100),
                st.integers(0, 200),
            ),
            min_size=1,
            max_size=250,
        )
    )
    def test_store_matches_dict_model(self, ops):
        store = make_store()
        model: dict[int, Value] = {}
        for i, (kind, key, vlen) in enumerate(ops):
            if kind == "put":
                value = Value(i + 1, vlen)
                store.put(key, value)
                model[key] = value
            elif kind == "delete":
                store.delete(key)
                model.pop(key, None)
            else:
                _lat, got = store.get(key)
                assert got == model.get(key)
        store.check_invariants()
        for key, value in model.items():
            _lat, got = store.get(key)
            assert got == value
        _lat, scanned = store.scan(0, 10_000)
        assert dict(scanned) == model
        assert count_keys(store) == len(model)
