"""The B+Tree's block manager: fixed-size page slots in a single file.

WiredTiger stores each table in one file and recycles freed blocks
through an in-file free list; pages are written copy-on-write to a
*new* slot and the old slot is freed.  Two paper-relevant consequences
are modeled faithfully:

* the file's footprint stays compact — roughly dataset size plus
  slack — so the engine only ever writes a confined LBA range
  (Fig 4: ~45% of the device is never written);
* writes scatter randomly *within* that range (the "random write
  pattern" conventional wisdom attributes to B+Trees, §4.2).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.fs.filesystem import ExtentFilesystem


class Pager:
    """Allocates, reads and writes fixed-size page slots in one file."""

    #: Slots pre-allocated (fallocate-style) per file extension; real
    #: engines grow files in large chunks to limit fragmentation.
    GROW_CHUNK_SLOTS = 32
    #: The one tree file (WiredTiger keeps a table in one file).
    FILENAME = "btree.wt"

    def __init__(self, fs: ExtentFilesystem, page_bytes: int):
        if page_bytes <= 0:
            raise ConfigError("page_bytes must be positive")
        self.fs = fs
        self.page_bytes = page_bytes
        self.fs.create(self.FILENAME)
        self._nslots = 0
        self._free_slots: list[int] = []
        self.pages_written = 0
        self.pages_read = 0
        # slot -> (device_start, npages) | None, resolved lazily.  A
        # slot's device pages are fixed once its extent is allocated
        # (the tree file only ever grows), so I/O on a cached slot is
        # submitted as a device range directly; None marks slots that
        # span extents and must go through the filesystem.
        self._slot_runs: dict[int, tuple[int, int] | None] = {}
        self._fs_page_size = fs.page_size

    # ------------------------------------------------------------------
    # Slot lifecycle
    # ------------------------------------------------------------------
    def write_new(self) -> tuple[int, float]:
        """Write a page into a fresh slot (copy-on-write target) as a
        foreground request.

        Returns (slot, latency).  Freed slots are recycled before the
        file grows; growth reserves a whole chunk of slots without
        device writes (fallocate-style).
        """
        self.pages_written += 1
        slot = self.alloc_slot()
        return slot, self._write_slot(slot, background=False)

    def alloc_slot(self) -> int:
        """Take a fresh slot, growing the file by a chunk if needed.

        Splitting allocation from the write lets batch callers run the
        engine's alloc/free sequence in scalar order (slot recycling is
        a LIFO, so interleaving matters) while deferring the device
        writes into one :meth:`write_slots` submission.
        """
        if not self._free_slots:
            self.fs.reserve(self.FILENAME, self.GROW_CHUNK_SLOTS * self.page_bytes)
            grown = range(self._nslots, self._nslots + self.GROW_CHUNK_SLOTS)
            self._nslots += self.GROW_CHUNK_SLOTS
            self._free_slots.extend(reversed(grown))
        return self._free_slots.pop()

    def write_slots(self, slots: list[int], background: bool = False) -> float:
        """Write the given slots as one batched submission.

        Each slot remains its own host request, submitted in order, so
        the device accounts one request per slot.
        """
        for slot in slots:
            self._check_slot(slot)
        self.pages_written += len(slots)
        latency = 0.0
        for slot in slots:
            latency += self._write_slot(slot, background)
        return latency

    def read(self, slot: int) -> float:
        """Read one page slot; returns latency."""
        self._check_slot(slot)
        self.pages_read += 1
        run = self._slot_run(slot)
        if run is not None:
            return self.fs.device.read_range(*run)
        return self.fs.pread(self.FILENAME, slot * self.page_bytes, self.page_bytes)

    def _write_slot(self, slot: int, background: bool) -> float:
        """Submit one slot write, via the cached device range if any."""
        run = self._slot_run(slot)
        if run is not None:
            return self.fs.device.write_range(run[0], run[1], background=background)
        return self.fs.pwrite(
            self.FILENAME, slot * self.page_bytes, self.page_bytes,
            background=background,
        )

    def _slot_run(self, slot: int) -> tuple[int, int] | None:
        """The slot's device range — exactly what the filesystem would
        resolve for its byte span — cached after the first lookup."""
        try:
            return self._slot_runs[slot]
        except KeyError:
            offset = slot * self.page_bytes
            page_size = self._fs_page_size
            first_page = offset // page_size
            last_page = -(-(offset + self.page_bytes) // page_size)
            run = self.fs.page_run(self.FILENAME, first_page, last_page - first_page)
            self._slot_runs[slot] = run
            return run

    def free(self, slot: int) -> None:
        """Return a slot to the in-file free list (space is *not*
        returned to the filesystem — the file keeps its footprint)."""
        self._check_slot(slot)
        if slot in self._free_slots:
            raise ConfigError(f"double free of page slot {slot}")
        self._free_slots.append(slot)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nslots(self) -> int:
        """Total slots the file currently holds."""
        return self._nslots

    @property
    def free_slot_count(self) -> int:
        """Recyclable slots inside the file."""
        return len(self._free_slots)

    @property
    def file_bytes(self) -> int:
        """The file's on-disk footprint."""
        return self.fs.file_size(self.FILENAME)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self._nslots:
            raise ConfigError(f"page slot {slot} out of range [0, {self._nslots})")
