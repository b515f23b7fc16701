"""Extent allocator for the simulated filesystem.

One strategy, *scatter*: each allocation is taken from a
pseudo-randomly chosen free extent (weighted by size).  This models an
aged ext4: space freed by deleted files is reused at effectively
arbitrary positions, so a workload that constantly creates and deletes
files (the LSM engine's SSTables) both covers the *whole* LBA space
over time (Fig 4 of the paper) and produces a random overwrite pattern
at device level — the pattern for which garbage collection exhibits
the utilization-dependent WA-D the paper measures (Figs 2c, 3c, 5b).

A request takes as many extents as the pivots carve for it; there
is no contiguous mode.

The free list is two sorted Python lists, carved in place and
coalesced with ``bisect`` (DESIGN.md §12.1: at the ~100 extents it
holds, list operations beat numpy's per-call cost).  The extent stream
is part of every simulated fingerprint — the scatter pivot is one
``random()`` draw against a float64 CDF of the free-extent lengths —
and is pinned by a recorded stream and a set-of-free-pages model in
``tests/fs/test_allocator.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, repeat
from operator import truediv

import numpy as np

from repro.errors import ConfigError, NoSpaceError

Extent = tuple[int, int]  # (start_page, npages)


class ExtentAllocator:
    """Tracks free extents over ``[0, npages)`` and hands out space.

    The free list is ``_s`` (extent starts, sorted) and ``_l`` (their
    lengths), both plain lists of ints.
    """

    def __init__(self, npages: int, seed: int = 0):
        if npages <= 0:
            raise ConfigError("allocator needs a positive page count")
        self.npages = npages
        self._rng = np.random.default_rng(seed)
        self._s = [0]
        self._l = [npages]
        self.free_pages = npages
        self.peak_used_pages = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, npages: int) -> list[Extent]:
        """Allocate *npages*, returning the extents granted (one or
        more, in the order they were carved)."""
        if npages <= 0:
            raise ConfigError("allocation size must be positive")
        if npages > self.free_pages:
            raise NoSpaceError(
                f"requested {npages} pages but only {self.free_pages} free"
            )
        s, l = self._s, self._l
        granted: list[Extent] = []
        remaining = npages
        while remaining > 0:
            # The head of a size-weighted random free extent, at most
            # *remaining* pages of it.
            pivot = self._scatter_pivot()
            start = s[pivot]
            length = l[pivot]
            if length > remaining:
                s[pivot] = start + remaining
                l[pivot] = length - remaining
                length = remaining
            else:
                del s[pivot], l[pivot]
            self.free_pages -= length
            granted.append((start, length))
            remaining -= length
        used = self.npages - self.free_pages
        if used > self.peak_used_pages:
            self.peak_used_pages = used
        return granted

    def free(self, start: int, npages: int) -> None:
        """Return an extent to the free pool, coalescing neighbours."""
        self.free_many([(start, npages)])

    def free_many(self, extents: list[Extent]) -> None:
        """Return a batch of extents (a deleted file's) to the free pool.

        All or nothing: the whole batch is checked against the free
        list and against itself before any extent is freed.  The
        coalesced free list of a set of disjoint extents does not
        depend on their order, and no RNG is consumed.
        """
        batch = sorted(extents)
        s, l = self._s, self._l
        prev_end = 0
        for start, npages in batch:
            if npages <= 0:
                raise ConfigError("freed extent must be non-empty")
            if start < 0 or start + npages > self.npages:
                raise ConfigError("freed extent outside address space")
            i = bisect_right(s, start)
            if (start < prev_end or (i and s[i - 1] + l[i - 1] > start)
                    or (i < len(s) and start + npages > s[i])):
                raise ConfigError("double free: extent overlaps a free extent")
            prev_end = start + npages
        for start, npages in batch:
            i = bisect_right(s, start)
            end = start + npages
            succ = i < len(s) and s[i] == end
            if i and s[i - 1] + l[i - 1] == start:
                if succ:
                    l[i - 1] += npages + l[i]
                    del s[i], l[i]
                else:
                    l[i - 1] += npages
            elif succ:
                s[i] = start
                l[i] += npages
            else:
                s.insert(i, start)
                l.insert(i, npages)
            self.free_pages += npages

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def free_extents(self) -> list[Extent]:
        """All free extents sorted by start (a copy)."""
        return list(zip(self._s, self._l))

    def check_invariants(self) -> None:
        """Verify internal consistency; raises ``AssertionError`` on bugs."""
        s, l = self._s, self._l
        assert len(s) == len(l)
        assert all(n > 0 for n in l)
        assert all(a + n < b for a, n, b in zip(s, l, s[1:])), \
            "free extents overlap or are uncoalesced"
        if s:
            assert s[0] >= 0 and s[-1] + l[-1] <= self.npages
        assert sum(l) == self.free_pages

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _scatter_pivot(self) -> int:
        """Size-weighted random extent index (uniform over free pages).

        The arithmetic is ``rng.choice(count, p=weights /
        weights.sum())`` inlined — the same single ``random()`` draw
        against the same float64 CDF, accumulated left to right and
        divided by its last element — so the extent stream is part of
        every pinned fingerprint: do not reorder it.  ``free_pages`` is
        the weights' sum, exact in float64 below 2^53 in any order.
        """
        cdf = list(accumulate(map(truediv, self._l,
                                  repeat(float(self.free_pages)))))
        return bisect_right(cdf, self._rng.random(),
                            key=cdf[-1].__rtruediv__)
