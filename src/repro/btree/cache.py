"""The engine's page cache (§3.1).

A byte-budgeted LRU over leaf pages.  The paper configures a cache far
smaller than the dataset so that leaf accesses miss and evictions of
dirty pages (reconciliation) happen on the user thread — both the
read and the write of most operations are charged synchronously,
making the B+Tree engine latency-bound rather than bandwidth-bound.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.btree.node import LeafNode
from repro.errors import ConfigError


class PageCache:
    """Byte-budgeted LRU of resident leaf pages."""

    def __init__(self, budget_bytes: int):
        if budget_bytes <= 0:
            raise ConfigError("cache budget must be positive")
        self.budget_bytes = budget_bytes
        self._resident: OrderedDict[int, LeafNode] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __contains__(self, leaf_id: int) -> bool:
        return leaf_id in self._resident

    def __len__(self) -> int:
        return len(self._resident)

    @property
    def used_bytes(self) -> int:
        """Bytes of resident pages."""
        return self._bytes

    def touch(self, leaf_id: int) -> bool:
        """Mark a page as used; returns True on hit."""
        if leaf_id in self._resident:
            self._resident.move_to_end(leaf_id)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, leaf_id: int, leaf: LeafNode) -> list[LeafNode]:
        """Make a page resident; returns evicted pages (LRU first).

        Evicted dirty pages must be reconciled (written) by the caller.
        """
        if leaf_id in self._resident:
            self._resident.move_to_end(leaf_id)
            return []
        self._resident[leaf_id] = leaf
        self._bytes += leaf.nbytes
        evicted: list[LeafNode] = []
        while self._bytes > self.budget_bytes and len(self._resident) > 1:
            victim_id, victim = self._resident.popitem(last=False)
            if victim_id == leaf_id:  # never evict the page just inserted
                self._resident[victim_id] = victim
                self._resident.move_to_end(victim_id, last=False)
                break
            self._bytes -= victim.nbytes
            evicted.append(victim)
        return evicted

    def adjust(self, delta_bytes: int) -> None:
        """Account for a resident page growing or shrinking."""
        self._bytes += delta_bytes

    def forget(self, leaf_id: int) -> None:
        """Drop a page without eviction processing (page was deleted)."""
        leaf = self._resident.pop(leaf_id, None)
        if leaf is not None:
            self._bytes -= leaf.nbytes

    def dirty_pages(self) -> list[LeafNode]:
        """All resident dirty pages (checkpoint working set)."""
        return [leaf for leaf in self._resident.values() if leaf.dirty]
