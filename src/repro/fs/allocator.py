"""Extent allocator for the simulated filesystem.

Three strategies are provided:

* **scatter** (default): allocations are taken from a pseudo-randomly
  chosen free extent (weighted by size).  This models an aged ext4:
  space freed by deleted files is reused at effectively arbitrary
  positions, so a workload that constantly creates and deletes files
  (the LSM engine's SSTables) both covers the *whole* LBA space over
  time (Fig 4 of the paper) and produces a random overwrite pattern at
  device level — the pattern for which garbage collection exhibits the
  utilization-dependent WA-D the paper measures (Figs 2c, 3c, 5b).
* **next-fit** (ablation): a rotor walks the address space and wraps.
  This produces a *cyclic sequential* overwrite pattern whose WA-D is
  ~1 regardless of utilization — a useful contrast showing how much
  the filesystem's reuse policy matters
  (``tests/integration/test_ablations.py``).
* **first-fit** (ablation): always allocate at the lowest possible
  address, keeping the file footprint compact.

A request takes as many extents as the strategy carves for it; there
is no contiguous mode.  A file that happens to sit in one extent is
found by ``ExtentFilesystem.contiguous_device_range``, not requested.

The free list is a pair of parallel int64 arrays with in-place
carving, ``searchsorted`` coalescing and a batched :meth:`~
ExtentAllocator.free_many` (DESIGN.md §12).  The extent stream is part
of every simulated fingerprint — the scatter pivot is one ``random()``
draw against a float64 CDF of the free-extent lengths — and is pinned
by a recorded stream and a set-of-free-pages model in
``tests/fs/test_allocator.py``.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.errors import ConfigError, NoSpaceError

Extent = tuple[int, int]  # (start_page, npages)

STRATEGIES = ("scatter", "next-fit", "first-fit")


class ExtentAllocator:
    """Tracks free extents over ``[0, npages)`` and hands out space.

    The free list is two parallel int64 arrays, sorted by start
    (DESIGN.md §12):

    * the scatter strategy's per-allocation weight vector is one
      ``astype`` of the live length column;
    * carving edits the free list in place (one or two element stores);
    * :meth:`free_many` returns a whole batch of extents (file
      deletion — the LSM's table retirement path) in a single sorted
      merge + vectorized coalescing pass.
    """

    #: Initial free-list capacity (grows by doubling).
    _INITIAL_CAPACITY = 16

    def __init__(self, npages: int, strategy: str = "scatter", seed: int = 0):
        if npages <= 0:
            raise ConfigError("allocator needs a positive page count")
        if strategy not in STRATEGIES:
            raise ConfigError(f"unknown allocation strategy {strategy!r}")
        self.npages = npages
        self.strategy = strategy
        self._rng = np.random.default_rng(seed)
        cap = self._INITIAL_CAPACITY
        self._s = np.empty(cap, dtype=np.int64)  # extent starts, sorted
        self._l = np.empty(cap, dtype=np.int64)  # parallel lengths
        self._s[0] = 0
        self._l[0] = npages
        self._n = 1
        self._rotor = 0
        self.free_pages = npages
        self.peak_used_pages = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, npages: int) -> list[Extent]:
        """Allocate *npages*, returning the extents granted (one or
        more, in the order the strategy carved them)."""
        if npages <= 0:
            raise ConfigError("allocation size must be positive")
        if npages > self.free_pages:
            raise NoSpaceError(
                f"requested {npages} pages but only {self.free_pages} free"
            )
        granted: list[Extent] = []
        remaining = npages
        take_some = self._take_some
        while remaining > 0:
            extent = take_some(remaining)
            granted.append(extent)
            remaining -= extent[1]
        return granted

    def free(self, start: int, npages: int) -> None:
        """Return an extent to the free pool, coalescing neighbours."""
        if npages <= 0:
            raise ConfigError("freed extent must be non-empty")
        if start < 0 or start + npages > self.npages:
            raise ConfigError("freed extent outside address space")
        s, l, n = self._s, self._l, self._n
        idx = int(np.searchsorted(s[:n], start, side="right"))
        pred = idx > 0 and int(s[idx - 1]) + int(l[idx - 1]) == start
        if idx > 0 and int(s[idx - 1]) + int(l[idx - 1]) > start:
            raise ConfigError("double free: extent overlaps a free extent")
        if idx < n and start + npages > int(s[idx]):
            raise ConfigError("double free: extent overlaps a free extent")
        succ = idx < n and int(s[idx]) == start + npages
        if pred and succ:
            l[idx - 1] += npages + l[idx]
            self._delete(idx)
        elif pred:
            l[idx - 1] += npages
        elif succ:
            s[idx] = start
            l[idx] += npages
        else:
            self._insert(idx, start, npages)
        self.free_pages += npages

    def free_many(self, extents: list[Extent]) -> None:
        """Free a batch of extents in one vectorized merge pass.

        Equivalent to freeing them one by one (the final coalesced
        free list of a set of non-overlapping extents is canonical and
        order-independent; no RNG is consumed).  One extent falls
        through to :meth:`free`; real batches merge the sorted freed
        extents into the sorted free list and coalesce adjacency with
        array ops.
        """
        if len(extents) <= 1:
            for start, npages in extents:
                self.free(start, npages)
            return
        fs_ = np.fromiter((e[0] for e in extents), dtype=np.int64,
                          count=len(extents))
        fl = np.fromiter((e[1] for e in extents), dtype=np.int64,
                         count=len(extents))
        if (fl <= 0).any():
            raise ConfigError("freed extent must be non-empty")
        if int(fs_.min()) < 0 or int((fs_ + fl).max()) > self.npages:
            raise ConfigError("freed extent outside address space")
        n = self._n
        all_s = np.concatenate([self._s[:n], fs_])
        all_l = np.concatenate([self._l[:n], fl])
        order = np.argsort(all_s, kind="stable")
        s = all_s[order]
        l = all_l[order]
        ends = s + l
        if (s[1:] < ends[:-1]).any():
            raise ConfigError("double free: extent overlaps a free extent")
        # Coalesce: an extent starts a new run unless it begins exactly
        # where the previous one ends.
        first = np.empty(len(s), dtype=bool)
        first[0] = True
        np.not_equal(s[1:], ends[:-1], out=first[1:])
        idx_first = np.flatnonzero(first)
        new_s = s[idx_first]
        # Runs are contiguous, so a run's length is its last end minus
        # its first start.
        last_ends = np.empty(len(idx_first), dtype=np.int64)
        last_ends[:-1] = ends[idx_first[1:] - 1]
        last_ends[-1] = ends[-1]
        new_l = last_ends - new_s
        m = len(new_s)
        if m > self._s.size:
            cap = max(2 * self._s.size, m)
            self._s = np.empty(cap, dtype=np.int64)
            self._l = np.empty(cap, dtype=np.int64)
        self._s[:m] = new_s
        self._l[:m] = new_l
        self._n = m
        self.free_pages += int(fl.sum())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def free_extents(self) -> list[Extent]:
        """All free extents sorted by start (a copy)."""
        n = self._n
        return list(zip(self._s[:n].tolist(), self._l[:n].tolist()))

    def check_invariants(self) -> None:
        """Verify internal consistency; raises ``AssertionError`` on bugs."""
        n = self._n
        s = self._s[:n]
        l = self._l[:n]
        assert (l > 0).all()
        if n:
            assert (s[1:] > s[:-1] + l[:-1]).all(), \
                "free extents overlap or are uncoalesced"
            assert int(s[0]) >= 0
            assert int(s[-1] + l[-1]) <= self.npages
        assert (int(l.sum()) if n else 0) == self.free_pages

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _insert(self, idx: int, start: int, length: int) -> None:
        n = self._n
        if n == self._s.size:
            cap = 2 * n
            s = np.empty(cap, dtype=np.int64)
            l = np.empty(cap, dtype=np.int64)
            s[:n] = self._s[:n]
            l[:n] = self._l[:n]
            self._s, self._l = s, l
        s, l = self._s, self._l
        # numpy slice assignment buffers overlapping copies (memmove).
        s[idx + 1 : n + 1] = s[idx:n]
        l[idx + 1 : n + 1] = l[idx:n]
        s[idx] = start
        l[idx] = length
        self._n = n + 1

    def _delete(self, idx: int) -> None:
        n = self._n
        s, l = self._s, self._l
        s[idx : n - 1] = s[idx + 1 : n]
        l[idx : n - 1] = l[idx + 1 : n]
        self._n = n - 1

    def _scatter_pivot(self) -> int:
        """Size-weighted random extent index (uniform over free pages).

        The arithmetic is ``rng.choice(count, p=weights /
        weights.sum())`` inlined — same single ``random()`` draw
        against the same float64 CDF, without choice's per-call
        validation — so the extent stream is part of every pinned
        fingerprint: do not reorder it.
        """
        weights = self._l[:self._n].astype(np.float64)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self._rng.random(), side="right"))

    def _take_some(self, limit: int) -> Extent:
        n = self._n
        if self.strategy == "scatter" and n:
            pivot = self._scatter_pivot()
            start = int(self._s[pivot])
            take = int(self._l[pivot])
            if take > limit:
                take = limit
            self._carve_at(pivot, start, take)
            return (start, take)
        for idx in self._scan_indices():
            start = int(self._s[idx])
            length = int(self._l[idx])
            take_from = start
            if self.strategy == "next-fit" and start < self._rotor < start + length:
                take_from = self._rotor
            available = start + length - take_from
            take = min(limit, available)
            if take > 0:
                self._carve_at(idx, take_from, take)
                return (take_from, take)
        raise NoSpaceError("free accounting drifted: no extent found")

    def _scan_indices(self):
        """Scan order for the non-scatter strategies (ablation paths)."""
        n = self._n
        if self.strategy == "first-fit" or n == 0:
            return range(n)
        pivot = int(np.searchsorted(self._s[:n], self._rotor, side="left"))
        if pivot > 0 and int(self._s[pivot - 1]) + int(self._l[pivot - 1]) > self._rotor:
            pivot -= 1  # rotor points inside the previous extent
        return chain(range(pivot, n), range(pivot))

    def _carve_at(self, idx: int, take_from: int, take: int) -> None:
        """Remove [take_from, take_from+take) from the free extent at
        index *idx*, splitting it in place."""
        s, l = self._s, self._l
        extent_start = int(s[idx])
        length = int(l[idx])
        head = take_from - extent_start
        tail = (extent_start + length) - (take_from + take)
        if head > 0:
            l[idx] = head
            if tail > 0:
                self._insert(idx + 1, take_from + take, tail)
        elif tail > 0:
            s[idx] = take_from + take
            l[idx] = tail
        else:
            self._delete(idx)
        self.free_pages -= take
        used = self.npages - self.free_pages
        if used > self.peak_used_pages:
            self.peak_used_pages = used
        end = take_from + take
        self._rotor = 0 if end >= self.npages else end
