"""Extent-based filesystem over a block device.

This is the ext4 stand-in of the reproduction (§3.5 of the paper).
Files are lists of extents; the scatter allocator decides where new
extents land (see :mod:`repro.fs.allocator`).  The filesystem is
mounted ``nodiscard``, like the paper's: deleting a file frees its
extents in the filesystem but does **not** TRIM them on the device, so
the SSD keeps treating the stale pages as valid until they are
overwritten — a key ingredient of the LSM engine's device-level write
amplification.

Filesystem metadata overhead is not modeled; the paper states it is
negligible relative to the multi-GB datasets (§3.3).

The filesystem does accounting only — sizes, extents, device pages and
latencies.  No file contents are kept: key-value payloads are (seed,
length) descriptors rather than real bytes, so ``append`` / ``pwrite``
take a byte count and ``pread`` returns a latency.

A file's extent table is three plain lists — device starts, lengths
and a running page count — so a page range resolves with ``bisect``,
and deleting a file frees its extents as one allocator batch
(DESIGN.md §12.1).

Engines reach the device only through this layer.  A write goes down
as one block request of the range's device runs (``write_runs``), a
read as one request per run (``read_runs``); a caller that resolved a
range once with :meth:`ExtentFilesystem.byte_runs` submits it again
through :meth:`~ExtentFilesystem.write_runs` /
:meth:`~ExtentFilesystem.read_runs`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.errors import FileExistsError_, FileNotFoundError_, FilesystemError
from repro.fs.allocator import Extent, ExtentAllocator


class FileMeta:
    """Metadata of one file: its byte size and its extents in file order.

    Extent ``i`` is ``starts[i]``/``lens[i]`` on the device and begins
    at file page ``offsets[i]``; ``offsets[-1]`` is the file's page
    count.  Extents are only appended and a merge only lengthens the
    tail, so an allocated file page never moves.
    """

    __slots__ = ("name", "size_bytes", "starts", "lens", "offsets")

    def __init__(self, name: str):
        self.name = name
        self.size_bytes = 0
        self.starts: list[int] = []
        self.lens: list[int] = []
        self.offsets = [0]

    @property
    def extents(self) -> list[Extent]:
        """The extent table as (start, npages) tuples (a copy)."""
        return list(zip(self.starts, self.lens))

    def push_extents(self, extents: list[Extent]) -> None:
        """Append extents in file order; one that begins where the
        tail extent ends lengthens it instead."""
        starts, lens, offsets = self.starts, self.lens, self.offsets
        for start, npages in extents:
            if starts and starts[-1] + lens[-1] == start:
                lens[-1] += npages
                offsets[-1] += npages
            else:
                starts.append(start)
                lens.append(npages)
                offsets.append(offsets[-1] + npages)


class ExtentFilesystem:
    """A minimal extent filesystem exposing the operations engines need."""

    def __init__(self, device, seed: int = 0):
        self.device = device
        self.page_size = device.page_size
        self.allocator = ExtentAllocator(device.npages, seed=seed)
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
        """Delete a file, freeing its extents without a TRIM (``nodiscard``).

        All extents return to the allocator as one
        :meth:`~repro.fs.allocator.ExtentAllocator.free_many` batch.
        """
        self.allocator.free_many(self._lookup(name).extents)
        del self._files[name]

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
        meta = self._lookup(name, nbytes)
        if nbytes == 0:
            return 0.0

        old_size = meta.size_bytes
        new_size = old_size + nbytes
        page_size = self.page_size
        old_pages = _ceil_div(old_size, page_size)
        new_pages = _ceil_div(new_size, page_size)
        if new_pages > old_pages:
            meta.push_extents(self.allocator.alloc(new_pages - old_pages))
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
        meta = self._lookup(name, nbytes)
        if nbytes == 0:
            return
        old_pages = _ceil_div(meta.size_bytes, self.page_size)
        new_size = meta.size_bytes + nbytes
        new_pages = _ceil_div(new_size, self.page_size)
        if new_pages > old_pages:
            meta.push_extents(self.allocator.alloc(new_pages - old_pages))
        meta.size_bytes = new_size

    def pwrite(self, name: str, offset: int, nbytes: int,
               background: bool = False) -> float:
        """Overwrite *nbytes* of a file at a byte offset; the range must
        lie within the file (``reserve`` grows it first)."""
        meta = self._files.get(name)
        if meta is None or nbytes <= 0:
            self._lookup(name, nbytes)
            return 0.0
        end = offset + nbytes
        if offset < 0 or end > meta.size_bytes:
            raise FilesystemError(
                f"pwrite [{offset}, {end}) beyond EOF {meta.size_bytes} of {name!r}"
            )
        page_size = self.page_size
        first_page = offset // page_size
        count = -(-end // page_size) - first_page
        if len(meta.starts) == 1:  # a one-extent file (the journal ring)
            return self.device.write_runs((meta.starts[0] + first_page,),
                                          (count,), background)
        return self._write_file_pages(meta, first_page, count, background)

    def _write_file_pages(self, meta: FileMeta, first_page: int, count: int,
                          background: bool) -> float:
        """Submit a file page range to the device as one request of its
        device runs."""
        starts, lens = self._runs(meta, first_page, count)
        return self.device.write_runs(starts, lens, background)

    def byte_runs(self, name: str, offset: int, nbytes: int) -> list:
        """Device ``(start, npages)`` runs backing a byte range of a
        file, in file order (none for an empty range).  A resolution
        stays valid until its file is deleted: extents are only
        appended, and appending can only merge into the tail extent
        without moving it, so an allocated file page never moves."""
        return list(zip(*self._byte_columns(name, offset, nbytes)))

    def write_runs(self, runs, background: bool = False) -> float:
        """Write the device runs of one :meth:`byte_runs` resolution as
        one request; returns host-visible latency."""
        try:
            ((start, npages),) = runs  # one run
        except ValueError:
            pass
        else:
            return self.device.write_runs((start,), (npages,), background)
        return self.device.write_runs([start for start, _ in runs],
                                      [npages for _, npages in runs],
                                      background)

    def pread(self, name: str, offset: int, nbytes: int) -> float:
        """Read a byte range, one request per device run; returns
        host-visible latency."""
        latency = 0.0
        for run_latency in self.device.read_runs(
                *self._byte_columns(name, offset, nbytes)):
            latency += run_latency
        return latency

    def read_runs(self, groups) -> float:
        """Read byte ranges resolved by :meth:`byte_runs`, one group of
        device runs per range, as one device submission: the very float
        ``latency += pread(...)`` builds over the ranges in order (a
        group's runs summed first)."""
        try:
            (((start, npages),),) = groups  # one range of one run: no batch
        except ValueError:
            pass
        else:
            return self.device.read_runs((start,), (npages,))[0]
        latencies = iter(self.device.read_runs(
            [start for group in groups for start, _ in group],
            [npages for group in groups for _, npages in group]))
        total = 0.0
        for group in groups:
            if len(group) == 1:  # 0.0 + x is x
                total += next(latencies)
                continue
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
            offsets = meta.offsets
            assert len(offsets) == len(meta.lens) + 1 and offsets[0] == 0
            assert all(a + n == b for a, n, b in zip(offsets, meta.lens,
                                                     offsets[1:]))
            assert all(s + n != t for s, n, t in zip(meta.starts, meta.lens,
                                                     meta.starts[1:])), \
                "uncoalesced neighbouring extents"
            assert offsets[-1] >= _ceil_div(meta.size_bytes, self.page_size)
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
    def _lookup(self, name: str, nbytes: int = 0) -> FileMeta:
        if name not in self._files:
            raise FileNotFoundError_(f"no such file: {name!r}")
        if nbytes < 0:
            raise FilesystemError(f"negative length {nbytes} on {name!r}")
        return self._files[name]

    def _byte_columns(self, name: str, offset: int,
                      nbytes: int) -> tuple[list[int], list[int]]:
        """:meth:`byte_runs` as ``(starts, lens)`` columns."""
        meta = self._files.get(name)
        if meta is None or nbytes <= 0:
            self._lookup(name, nbytes)
            return [], []
        if offset < 0 or offset + nbytes > meta.size_bytes:
            raise FilesystemError(
                f"range [{offset}, {offset + nbytes}) beyond EOF "
                f"{meta.size_bytes} of {name!r}"
            )
        page_size = self.page_size
        first_page = offset // page_size
        return self._runs(meta, first_page,
                          -(-(offset + nbytes) // page_size) - first_page)

    def _runs(self, meta: FileMeta, first_page: int,
              count: int) -> tuple[list[int], list[int]]:
        """Device runs covering file pages [first_page, first_page+count),
        as ``(starts, lens)`` lists in file order."""
        offsets = meta.offsets
        end = first_page + count
        if end > offsets[-1]:
            raise FilesystemError(
                f"file {meta.name!r} has no pages for requested range"
            )
        i = bisect_right(offsets, first_page) - 1
        skip = first_page - offsets[i]
        if end <= offsets[i + 1]:
            return [meta.starts[i] + skip], [count]
        j = bisect_left(offsets, end, i + 2)
        starts = meta.starts[i:j]
        lens = meta.lens[i:j]
        starts[0] += skip
        lens[0] -= skip
        lens[-1] = end - offsets[j - 1]
        return starts, lens


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)

