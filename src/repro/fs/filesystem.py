"""Extent-based filesystem over a block device.

This is the ext4 stand-in of the reproduction (§3.5 of the paper).
Files are lists of extents; the allocator policy decides where new
extents land (see :mod:`repro.fs.allocator`).  Two paper-relevant
semantics are modeled explicitly:

* ``nodiscard`` (default, like the paper's mount options): deleting a
  file frees its extents in the filesystem but does **not** TRIM them
  on the device, so the SSD keeps treating the stale pages as valid
  until they are overwritten — a key ingredient of the LSM engine's
  device-level write amplification;
* ``discard=True`` (ablation): deletions TRIM the freed extents.

Filesystem metadata overhead is not modeled; the paper states it is
negligible relative to the multi-GB datasets (§3.3).

The filesystem does accounting only — sizes, extents, device pages and
latencies.  No file contents are kept: key-value payloads are (seed,
length) descriptors rather than real bytes, so ``append`` / ``pwrite``
take a byte count and ``pread`` returns a latency.

File extent tables are array-backed (parallel int64 start/length
columns with a cached cumulative page count): new extents are pushed
as one coalescing batch, page runs resolve with two ``searchsorted``
calls, and deletion frees the whole table in one allocator pass
(DESIGN.md §12).
"""

from __future__ import annotations

import numpy as np

from repro.errors import FileExistsError_, FileNotFoundError_, FilesystemError
from repro.fs.allocator import Extent, ExtentAllocator


class FileMeta:
    """Metadata of one file: its extents (in file order) and byte size.

    Extents live in a pair of parallel growable int64 arrays; the
    cumulative page count per extent is cached as an int64 column and
    invalidated by every extent mutation.
    """

    __slots__ = ("name", "size_bytes", "_es", "_el", "_ne",
                 "_pages", "_cum")

    def __init__(self, name: str):
        self.name = name
        self.size_bytes = 0
        self._es = np.empty(4, dtype=np.int64)  # extent device starts
        self._el = np.empty(4, dtype=np.int64)  # parallel lengths
        self._ne = 0
        self._pages = 0
        self._cum: np.ndarray | None = None

    @property
    def npages(self) -> int:
        """Pages allocated to the file."""
        return self._pages

    @property
    def nextents(self) -> int:
        """Number of (coalesced) extents backing the file."""
        return self._ne

    @property
    def extents(self) -> list[Extent]:
        """The extent table as (start, npages) tuples (a copy)."""
        ne = self._ne
        return list(zip(self._es[:ne].tolist(), self._el[:ne].tolist()))

    def cumulative(self) -> np.ndarray:
        """``cumulative()[i]`` = pages in extents[0..i]; cached."""
        if self._cum is None:
            self._cum = np.cumsum(self._el[:self._ne])
        return self._cum

    # ------------------------------------------------------------------
    # Extent mutation
    # ------------------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = self._es.size
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        es = np.empty(cap, dtype=np.int64)
        el = np.empty(cap, dtype=np.int64)
        ne = self._ne
        es[:ne] = self._es[:ne]
        el[:ne] = self._el[:ne]
        self._es, self._el = es, el

    def push_extent(self, extent: Extent) -> None:
        """Append one extent, merging with the previous if adjacent."""
        self._cum = None
        self._pages += extent[1]
        ne = self._ne
        if ne:
            last_start = int(self._es[ne - 1])
            last_len = int(self._el[ne - 1])
            if last_start + last_len == extent[0]:
                self._el[ne - 1] = last_len + extent[1]
                return
        self._grow(ne + 1)
        self._es[ne] = extent[0]
        self._el[ne] = extent[1]
        self._ne = ne + 1

    def push_extents(self, extents: list[Extent]) -> None:
        """Append a batch of extents in one coalescing array pass.

        Equivalent to pushing them one by one: runs of file-order
        adjacency (including adjacency with the current tail extent)
        collapse into single extents, exactly as the iterative
        tail-merge would produce.
        """
        k = len(extents)
        if k <= 1:
            for extent in extents:
                self.push_extent(extent)
            return
        self._cum = None
        es = np.fromiter((e[0] for e in extents), dtype=np.int64, count=k)
        el = np.fromiter((e[1] for e in extents), dtype=np.int64, count=k)
        self._pages += int(el.sum())
        ne = self._ne
        if ne:
            # Fold the current tail extent into the coalesce pass.
            cs = np.concatenate([self._es[ne - 1 : ne], es])
            cl = np.concatenate([self._el[ne - 1 : ne], el])
            base = ne - 1
        else:
            cs, cl = es, el
            base = 0
        ends = cs + cl
        first = np.empty(len(cs), dtype=bool)
        first[0] = True
        np.not_equal(cs[1:], ends[:-1], out=first[1:])
        idx_first = np.flatnonzero(first)
        new_s = cs[idx_first]
        last_ends = np.empty(len(idx_first), dtype=np.int64)
        last_ends[:-1] = ends[idx_first[1:] - 1]
        last_ends[-1] = ends[-1]
        need = base + len(new_s)
        self._grow(need)
        self._es[base:need] = new_s
        self._el[base:need] = last_ends - new_s
        self._ne = need


class ExtentFilesystem:
    """A minimal extent filesystem exposing the operations engines need."""

    def __init__(self, device, strategy: str = "scatter", discard: bool = False,
                 seed: int = 0):
        self.device = device
        self.page_size = device.page_size
        self.allocator = ExtentAllocator(device.npages, strategy=strategy,
                                         seed=seed)
        self.discard = discard
        self._files: dict[str, FileMeta] = {}

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------
    def create(self, name: str) -> None:
        """Create an empty file."""
        if name in self._files:
            raise FileExistsError_(f"file {name!r} already exists")
        self._files[name] = FileMeta(name)

    def exists(self, name: str) -> bool:
        """Whether the named file exists."""
        return name in self._files

    def delete(self, name: str) -> None:
        """Delete a file, freeing its extents (TRIM only if ``discard``).

        All extents return to the allocator in one batched
        :meth:`~repro.fs.allocator.ExtentAllocator.free_many` merge;
        the device sees one TRIM per extent, in file order.
        """
        meta = self._lookup(name)
        extents = meta.extents
        self.allocator.free_many(extents)
        if self.discard:
            for start, length in extents:
                self.device.trim_range(start, length)
        del self._files[name]

    def list_files(self) -> list[str]:
        """Names of all files, sorted."""
        return sorted(self._files)

    def file_size(self, name: str) -> int:
        """Byte size of the named file."""
        return self._lookup(name).size_bytes

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def append(self, name: str, nbytes: int, background: bool = False) -> float:
        """Append *nbytes* bytes to a file.

        New pages are allocated as needed; a partially filled tail page
        is rewritten (the read-modify-write a real filesystem performs
        with direct I/O).  Returns host-visible latency.
        """
        meta = self._lookup(name)
        if nbytes <= 0:
            return 0.0

        old_size = meta.size_bytes
        new_size = old_size + nbytes
        page_size = self.page_size
        old_pages = _ceil_div(old_size, page_size)
        new_pages = _ceil_div(new_size, page_size)
        if new_pages > old_pages:
            self._push_new_extents(meta, new_pages - old_pages)
        meta.size_bytes = new_size

        # Pages touched: the (possibly partial) page containing old EOF
        # through the last page of the new EOF.
        first_page = old_size // page_size
        return self._write_file_pages(meta, first_page, new_pages - first_page,
                                      background)

    def reserve(self, name: str, nbytes: int) -> None:
        """Extend a file by *nbytes* without writing (``fallocate``).

        The allocated pages stay unwritten on the device until a
        ``pwrite`` touches them — pre-allocated-but-unused space does
        not count as valid data for garbage collection, exactly like a
        real fallocate over a trimmed range.
        """
        meta = self._lookup(name)
        if nbytes <= 0:
            return
        old_pages = _ceil_div(meta.size_bytes, self.page_size)
        new_size = meta.size_bytes + nbytes
        new_pages = _ceil_div(new_size, self.page_size)
        if new_pages > old_pages:
            self._push_new_extents(meta, new_pages - old_pages)
        meta.size_bytes = new_size

    def pwrite(self, name: str, offset: int, nbytes: int,
               background: bool = False) -> float:
        """Write *nbytes* within (or extending) a file at a byte offset."""
        meta = self._lookup(name)
        if nbytes <= 0:
            return 0.0
        if offset < 0 or offset > meta.size_bytes:
            raise FilesystemError(
                f"pwrite at offset {offset} beyond EOF {meta.size_bytes} of {name!r}"
            )
        end = offset + nbytes
        latency = 0.0
        if end > meta.size_bytes:
            # Grow first (allocating pages), then overwrite in place below;
            # the grown region's write is charged by append.
            grow = end - meta.size_bytes
            latency += self.append(name, grow, background=background)
            nbytes -= grow
            end = offset + nbytes
            if nbytes <= 0:
                return latency
        first_page = offset // self.page_size
        last_page = _ceil_div(end, self.page_size)
        latency += self._write_file_pages(meta, first_page,
                                          last_page - first_page, background)
        return latency

    def _push_new_extents(self, meta: FileMeta, npages: int) -> None:
        """Allocate *npages* and append the granted extents to *meta*
        as one coalescing batch."""
        meta.push_extents(self.allocator.alloc(npages))

    def _write_file_pages(self, meta: FileMeta, first_page: int, count: int,
                          background: bool) -> float:
        """Submit a file page range to the device.

        A range inside one extent — the overwhelmingly common shape —
        is submitted as a consecutive device range (no page-list
        materialization anywhere down the stack); only extent-spanning
        ranges build the explicit page list.  Device accounting is
        identical either way: one host request for the same pages.
        """
        run = self._single_run(meta, first_page, count)
        if run is not None:
            return self.device.write_range(run[0], run[1], background=background)
        return self.device.write_pages(
            self._file_lpns(meta, first_page, count), background=background
        )

    def contiguous_device_range(self, name: str) -> tuple[int, int] | None:
        """(device_start, npages) when the file occupies one extent.

        Fixed-footprint hot files (the B+Tree's pre-allocated journal
        ring) cache this translation and submit their page writes as
        device ranges directly — exactly the range ``pwrite`` would
        compute, minus the per-record resolution.  Returns None for
        multi-extent files; callers must then go through ``pwrite``.
        The cache is sound only while the file is neither extended nor
        deleted, which a ring guarantees by construction.
        """
        meta = self._lookup(name)
        if meta.nextents == 1:
            return (int(meta._es[0]), int(meta._el[0]))
        return None

    def page_run(self, name: str, first_page: int,
                 count: int) -> tuple[int, int] | None:
        """Device range of file pages [first_page, first_page+count), or
        None when the range spans extents.

        Once allocated, a file page's device location never changes
        (extents are only appended, and appending can only merge into
        the tail extent without moving it), so fixed-slot writers (the
        B+Tree pager) may cache this resolution for files they never
        truncate or delete and submit device ranges directly.
        """
        return self._single_run(self._lookup(name), first_page, count)

    def pread(self, name: str, offset: int, nbytes: int) -> float:
        """Read a byte range; returns host-visible latency."""
        latency = 0.0
        for start, length in self._byte_range_runs(name, offset, nbytes):
            latency += self.device.read_range(start, length)
        return latency

    def pread_many(self, names, offsets, nbytes) -> float:
        """Read several byte ranges as one device submission.

        Returns the very float ``latency += pread(name, offset,
        size)`` builds in order — a range's device runs are summed
        first, then the ranges — going down the device stack once.
        """
        ranges = [self._byte_range_runs(name, offset, size)
                  for name, offset, size in zip(names, offsets, nbytes)]
        runs = [run for group in ranges for run in group]
        latencies = iter(self.device.read_ranges(
            [start for start, _ in runs], [length for _, length in runs]))
        total = 0.0
        for group in ranges:
            latency = 0.0
            for _run in group:
                latency += next(latencies)
            total += latency
        return total

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def used_pages(self) -> int:
        """Pages currently allocated to files."""
        return self.allocator.npages - self.allocator.free_pages

    @property
    def used_bytes(self) -> int:
        """Bytes of allocated space (page granularity, like ``df``)."""
        return self.used_pages * self.page_size

    @property
    def capacity_bytes(self) -> int:
        """Total filesystem capacity in bytes."""
        return self.allocator.npages * self.page_size

    def counters(self) -> dict:
        """Space accounting as layer-labelled counters: pages and bytes
        in use now (gauges), their high-water marks (the paper reports
        the *maximum* utilization for RocksDB, whose usage oscillates)
        and the capacity utilization is measured against."""
        peak = self.allocator.peak_used_pages
        return {"fs.used_pages": self.used_pages,
                "fs.used_bytes": self.used_bytes,
                "fs.peak_used_pages": peak,
                "fs.peak_used_bytes": peak * self.page_size,
                "fs.npages": self.allocator.npages}

    def file_device_pages(self, name: str) -> np.ndarray:
        """All device pages of a file, in file order (for tests/traces)."""
        meta = self._lookup(name)
        return self._file_lpns(meta, 0, meta.npages)

    def check_invariants(self) -> None:
        """Verify allocator/file consistency; raises on bugs."""
        self.allocator.check_invariants()
        claimed: set[int] = set()
        for meta in self._files.values():
            for start, length in meta.extents:
                pages = range(start, start + length)
                overlap = claimed.intersection(pages)
                assert not overlap, f"files share pages {sorted(overlap)[:4]}"
                claimed.update(pages)
            assert meta.npages == sum(l for _, l in meta.extents)
            assert meta.npages >= _ceil_div(meta.size_bytes, self.page_size)
        free = {
            page
            for start, length in self.allocator.free_extents()
            for page in range(start, start + length)
        }
        assert not claimed.intersection(free), "allocated pages marked free"
        assert len(claimed) + len(free) == self.allocator.npages

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _lookup(self, name: str) -> FileMeta:
        if name not in self._files:
            raise FileNotFoundError_(f"no such file: {name!r}")
        return self._files[name]

    def _single_run(self, meta: FileMeta, first_page: int,
                    count: int) -> tuple[int, int] | None:
        """(device_start, count) when the page range sits in one extent,
        else None (callers fall back to the multi-run path)."""
        ne = meta._ne
        if ne == 1:
            # One-extent files (the pre-allocated journal ring, small
            # logs) resolve with pure arithmetic.
            if first_page + count > meta._pages:
                raise FilesystemError(
                    f"file {meta.name!r} has no pages for requested range"
                )
            return (int(meta._es[0]) + first_page, count)
        cum = meta.cumulative()
        if ne == 0 or first_page + count > int(cum[-1]):
            raise FilesystemError(
                f"file {meta.name!r} has no pages for requested range"
            )
        idx = int(cum.searchsorted(first_page, side="right"))
        preceding = int(cum[idx - 1]) if idx > 0 else 0
        skip = first_page - preceding
        if skip + count <= int(meta._el[idx]):
            return (int(meta._es[idx]) + skip, count)
        return None

    def _byte_range_runs(self, name: str, offset: int, nbytes: int) -> list:
        """Device ``(start, npages)`` runs backing a byte range of a file."""
        meta = self._files.get(name) or self._lookup(name)
        if nbytes <= 0:
            return []
        if offset < 0 or offset + nbytes > meta.size_bytes:
            raise FilesystemError(
                f"pread [{offset}, {offset + nbytes}) beyond EOF "
                f"{meta.size_bytes} of {name!r}"
            )
        page_size = self.page_size
        first_page = offset // page_size
        count = -(-(offset + nbytes) // page_size) - first_page
        run = self._single_run(meta, first_page, count)
        if run is not None:
            return [run]
        starts, lens = self._run_arrays(meta, first_page, count)
        return list(zip(starts.tolist(), lens.tolist()))

    def _run_bounds(self, meta: FileMeta, first_page: int, count: int):
        """(first_extent, last_extent, skip) covering the page range."""
        cum = meta.cumulative()
        if meta._ne == 0 or first_page + count > int(cum[-1]):
            raise FilesystemError(
                f"file {meta.name!r} has no pages for requested range"
            )
        i0 = int(cum.searchsorted(first_page, side="right"))
        i1 = int(cum.searchsorted(first_page + count - 1, side="right"))
        preceding = int(cum[i0 - 1]) if i0 > 0 else 0
        return i0, i1, first_page - preceding

    def _run_arrays(self, meta: FileMeta, first_page: int,
                    count: int) -> tuple[np.ndarray, np.ndarray]:
        """Device runs covering a page range, as (starts, lens) arrays."""
        i0, i1, skip = self._run_bounds(meta, first_page, count)
        starts = meta._es[i0 : i1 + 1].copy()
        lens = meta._el[i0 : i1 + 1].copy()
        starts[0] += skip
        lens[0] -= skip
        lens[-1] = count - int(lens[:-1].sum())
        return starts, lens

    def _file_lpns(self, meta: FileMeta, first_page: int, count: int):
        """Device pages for a file range, as an int64 array."""
        starts, lens = self._run_arrays(meta, first_page, count)
        # Concatenation of per-run aranges without materializing
        # them: repeat each run's (start - pages_before_run) and
        # add the global page index.
        before = np.empty(len(lens), dtype=np.int64)
        before[0] = 0
        np.cumsum(lens[:-1], out=before[1:])
        return np.repeat(starts - before, lens) + np.arange(
            count, dtype=np.int64)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)
