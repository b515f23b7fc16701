"""Unit tests for B+Tree components: nodes, pager, cache."""

from __future__ import annotations

import pytest

from repro.block.device import BlockDevice
from repro.btree.cache import PageCache
from repro.btree.config import BTreeConfig
from repro.btree.node import InternalNode, LeafNode
from repro.btree.pager import Pager
from repro.errors import ConfigError
from repro.fs.filesystem import ExtentFilesystem
from repro.flash.ssd import SSD
from repro.core.clock import VirtualClock
from tests.conftest import make_tiny_config

CONFIG = BTreeConfig()


class TestLeafNode:
    def test_upsert_insert_and_update(self):
        leaf = LeafNode()
        leaf.upsert(5, 1, 100, CONFIG)
        leaf.upsert(3, 2, 100, CONFIG)
        leaf.upsert(5, 3, 200, CONFIG)
        assert leaf.keys == [3, 5]
        assert leaf.vseeds == [2, 3]
        assert leaf.vlens == [100, 200]

    def test_size_accounting(self):
        leaf = LeafNode()
        leaf.upsert(1, 1, 100, CONFIG)
        expected = CONFIG.leaf_entry_bytes(100)
        assert leaf.nbytes == expected
        leaf.upsert(1, 2, 150, CONFIG)
        assert leaf.nbytes == CONFIG.leaf_entry_bytes(150)
        leaf.remove(1, CONFIG)
        assert leaf.nbytes == 0

    def test_remove_missing(self):
        leaf = LeafNode()
        assert not leaf.remove(9, CONFIG)

    def test_even_split(self):
        leaf = LeafNode()
        for key in range(10):
            leaf.upsert(key, key, 100, CONFIG)
        right = leaf.split(CONFIG, appending=False)
        assert leaf.keys == list(range(5))
        assert right.keys == list(range(5, 10))
        assert leaf.next_leaf is right
        assert right.dirty and leaf.dirty

    def test_appending_split_keeps_left_full(self):
        leaf = LeafNode()
        for key in range(8):
            leaf.upsert(key, key, 3990, CONFIG)
        right = leaf.split(CONFIG, appending=True)
        assert len(right.keys) < len(leaf.keys)
        assert leaf.nbytes <= CONFIG.leaf_page_bytes * CONFIG.fill_factor

    def test_split_preserves_total(self):
        leaf = LeafNode()
        for key in range(9):
            leaf.upsert(key, key, 500, CONFIG)
        total = leaf.nbytes
        right = leaf.split(CONFIG, appending=False)
        assert leaf.nbytes + right.nbytes == total


class TestInternalNode:
    def test_child_routing(self):
        node = InternalNode([10, 20], ["a", "b", "c"])
        assert node.children[node.child_index(5)] == "a"
        assert node.children[node.child_index(10)] == "b"
        assert node.children[node.child_index(15)] == "b"
        assert node.children[node.child_index(25)] == "c"

    def test_insert_child_order(self):
        node = InternalNode([10], ["a", "b"])
        node.insert_child(5, "x")
        assert node.keys == [5, 10]
        assert node.children == ["a", "x", "b"]

    def test_split_promotes_middle(self):
        node = InternalNode([1, 2, 3, 4], ["a", "b", "c", "d", "e"])
        separator, right = node.split()
        assert separator == 3
        assert node.keys == [1, 2]
        assert node.children == ["a", "b", "c"]
        assert right.keys == [4]
        assert right.children == ["d", "e"]

    def test_remove_child(self):
        node = InternalNode([10, 20], ["a", "b", "c"])
        node.remove_child("b")
        assert node.children == ["a", "c"]
        assert len(node.keys) == 1


@pytest.fixture
def pager(clock):
    ssd = SSD(make_tiny_config(nblocks=64), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    return Pager(fs, 32 * 1024)


def file_bytes(pager):
    """The tree file's on-disk footprint."""
    return pager.fs.file_size(Pager.FILENAME)


class TestPager:
    def test_write_new_allocates_slots(self, pager):
        slot1, lat1 = pager.write_new()
        slot2, _lat2 = pager.write_new()
        assert slot1 != slot2
        assert lat1 > 0

    def test_free_slots_recycled(self, pager):
        slot, _ = pager.write_new()
        before = file_bytes(pager)
        pager.free(slot)
        slot2, _ = pager.write_new()
        assert slot2 == slot
        assert file_bytes(pager) == before

    def test_double_free_rejected(self, pager):
        slot, _ = pager.write_new()
        pager.free(slot)
        with pytest.raises(ConfigError):
            pager.free(slot)

    def test_grows_in_chunks(self, pager):
        pager.write_new()
        assert file_bytes(pager) == Pager.GROW_CHUNK_SLOTS * pager.page_bytes
        slots = {pager.write_new()[0] for _ in range(Pager.GROW_CHUNK_SLOTS - 1)}
        assert file_bytes(pager) == Pager.GROW_CHUNK_SLOTS * pager.page_bytes
        pager.write_new()
        assert file_bytes(pager) == 2 * Pager.GROW_CHUNK_SLOTS * pager.page_bytes
        assert len(slots) == Pager.GROW_CHUNK_SLOTS - 1

    def test_read_and_bounds(self, pager):
        slot, _ = pager.write_new()
        assert pager.read(slot) > 0
        with pytest.raises(ConfigError):
            pager.read(Pager.GROW_CHUNK_SLOTS)

    def test_file_footprint_stays_put(self, pager):
        """CoW recycling must not grow the file once slots exist."""
        slots = [pager.write_new()[0] for _ in range(10)]
        size = file_bytes(pager)
        for _ in range(50):
            slot, _ = pager.write_new()
            pager.free(slots.pop(0))
            slots.append(slot)
        assert file_bytes(pager) == size


class TestPageCache:
    def make_leaf(self, nbytes):
        leaf = LeafNode()
        leaf.nbytes = nbytes
        return leaf

    def test_positive_budget_required(self):
        with pytest.raises(ConfigError):
            PageCache(0)

    def test_hit_miss_tracking(self):
        cache = PageCache(1000)
        leaf = self.make_leaf(100)
        assert not cache.touch(id(leaf))
        cache.insert(id(leaf), leaf)
        assert cache.touch(id(leaf))
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_lru_order(self):
        cache = PageCache(250)
        leaves = [self.make_leaf(100) for _ in range(3)]
        evicted = []
        for leaf in leaves:
            evicted += cache.insert(id(leaf), leaf)
        assert evicted == [leaves[0]]
        assert id(leaves[1]) in cache and id(leaves[2]) in cache

    def test_touch_protects_from_eviction(self):
        cache = PageCache(250)
        a, b, c = (self.make_leaf(100) for _ in range(3))
        cache.insert(id(a), a)
        cache.insert(id(b), b)
        cache.touch(id(a))  # b is now LRU
        evicted = cache.insert(id(c), c)
        assert evicted == [b]

    def test_never_evicts_only_page(self):
        cache = PageCache(100)
        big = self.make_leaf(500)
        assert cache.insert(id(big), big) == []
        assert id(big) in cache

    def test_adjust_and_forget(self):
        cache = PageCache(1000)
        leaf = self.make_leaf(100)
        cache.insert(id(leaf), leaf)
        cache.adjust(50)
        assert cache._bytes == 150  # the budget's running total
        cache.forget(id(leaf))
        assert cache._bytes == 50  # adjustment was external to the page
        assert id(leaf) not in cache

    def test_dirty_pages_listing(self):
        cache = PageCache(1000)
        a, b = self.make_leaf(10), self.make_leaf(10)
        a.dirty = True
        cache.insert(id(a), a)
        cache.insert(id(b), b)
        assert cache.dirty_pages() == [a]
