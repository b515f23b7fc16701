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
        # slot -> the filesystem's device runs for the slot's bytes,
        # resolved on first use: the tree file is never deleted, so a
        # resolution stays valid (ExtentFilesystem.byte_runs).
        self._slot_runs: dict[int, list] = {}

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
        runs = self._slot_runs.get(slot) or self._resolve(slot)
        return self.fs.read_runs((runs,))

    def _write_slot(self, slot: int, background: bool) -> float:
        """Submit one slot write as one request."""
        runs = self._slot_runs.get(slot) or self._resolve(slot)
        return self.fs.write_runs(runs, background)

    def _resolve(self, slot: int) -> list:
        """Resolve the slot's device runs and cache them."""
        runs = self._slot_runs[slot] = self.fs.byte_runs(
            self.FILENAME, slot * self.page_bytes, self.page_bytes)
        return runs

    def free(self, slot: int) -> None:
        """Return a slot to the in-file free list (space is *not*
        returned to the filesystem — the file keeps its footprint)."""
        self._check_slot(slot)
        if slot in self._free_slots:
            raise ConfigError(f"double free of page slot {slot}")
        self._free_slots.append(slot)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self._nslots:
            raise ConfigError(f"page slot {slot} out of range [0, {self._nslots})")
