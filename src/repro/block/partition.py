"""Disk partitions: LBA-range views over a block device.

Partitions are how the paper implements software over-provisioning
(§4.6): a 300 GB partition is given to the filesystem while 100 GB of
trimmed capacity is never written, acting as extra spare space for
garbage collection.  A :class:`Partition` translates page addresses and
forwards to the parent device, so a filesystem mounted on it can never
touch the reserved range.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, OutOfRangeError


class Partition:
    """A contiguous page-range view over a block device."""

    def __init__(self, parent, start_page: int, npages: int, name: str = "part0"):
        if start_page < 0 or npages <= 0 or start_page + npages > parent.npages:
            raise ConfigError(
                f"partition [{start_page}, {start_page + npages}) does not fit "
                f"device of {parent.npages} pages"
            )
        self.parent = parent
        self.start_page = start_page
        self.name = name
        self._npages = npages
        # The default stack mounts the filesystem on a whole-device
        # partition; address translation is then the identity and the
        # parent performs the same bounds validation, so writes pass
        # straight through (DESIGN.md §8).
        self._whole = start_page == 0 and npages == parent.npages

    # Device protocol ----------------------------------------------------------
    @property
    def page_size(self) -> int:
        """Bytes per logical page."""
        return self.parent.page_size

    @property
    def npages(self) -> int:
        """Pages in this partition."""
        return self._npages

    @property
    def capacity_bytes(self) -> int:
        """Partition capacity in bytes."""
        return self._npages * self.page_size

    def write_pages(self, lpns: np.ndarray, background: bool = False) -> float:
        n = len(lpns)
        if n == 0:
            return 0.0
        if self._whole:
            # Identity translation; the FTL validates the same logical
            # space and raises the same OutOfRangeError.
            return self.parent.write_pages(lpns, background=background)
        if n <= 8:
            # Small requests (journal records, page reconciliations)
            # translate on Python ints; the array path's min/max scans
            # cost more than the whole translation for a few pages.
            start = self.start_page
            npages = self._npages
            shifted = []
            for lpn in lpns:
                lpn = int(lpn)
                if lpn < 0 or lpn >= npages:
                    raise OutOfRangeError("write outside partition")
                shifted.append(lpn + start)
            return self.parent.write_pages(shifted, background=background)
        lpns = np.asarray(lpns, dtype=np.int64)
        if int(lpns.min()) < 0 or int(lpns.max()) >= self._npages:
            raise OutOfRangeError("write outside partition")
        return self.parent.write_pages(lpns + self.start_page, background=background)

    def write_range(self, start: int, npages: int, background: bool = False) -> float:
        if npages < 0 or start < 0 or start + npages > self._npages:
            self._check(start, npages)
        return self.parent.write_range(self.start_page + start, npages, background=background)

    def read_range(self, start: int, npages: int) -> float:
        if npages < 0 or start < 0 or start + npages > self._npages:
            self._check(start, npages)
        return self.parent.read_range(self.start_page + start, npages)

    def read_ranges(self, starts, lens) -> list[float]:
        """``read_range`` of every ``(start, npages)``, as one submission."""
        if self._whole:  # identity translation; the SSD checks the same space
            return self.parent.read_ranges(starts, lens)
        for start, npages in zip(starts, lens):
            self._check(start, npages)
        return self.parent.read_ranges(
            [self.start_page + start for start in starts], lens)

    def trim_range(self, start: int, npages: int) -> None:
        self._check(start, npages)
        self.parent.trim_range(self.start_page + start, npages)

    def trim_all(self) -> None:
        """TRIM the whole partition."""
        self.parent.trim_range(self.start_page, self._npages)

    def backlog_seconds(self) -> float:
        """Queued work on the underlying device."""
        return self.parent.backlog_seconds()

    # Helpers --------------------------------------------------------------
    def _check(self, start: int, npages: int) -> None:
        if npages < 0 or start < 0 or start + npages > self._npages:
            raise OutOfRangeError(
                f"range [{start}, {start + npages}) outside partition of "
                f"{self._npages} pages"
            )


def whole_device_partition(device) -> Partition:
    """The default single partition spanning the entire device (§3.5)."""
    return Partition(device, 0, device.npages, name="whole-disk")


def overprovisioned_partition(device, reserved_fraction: float) -> Partition:
    """A partition leaving *reserved_fraction* of the device unwritten.

    The reserved tail range acts as software over-provisioning provided
    the device was trimmed beforehand (§4.6).
    """
    if not 0.0 <= reserved_fraction < 1.0:
        raise ConfigError("reserved_fraction must be in [0, 1)")
    usable = int(device.npages * (1.0 - reserved_fraction))
    if usable <= 0:
        raise ConfigError("partition would be empty")
    return Partition(device, 0, usable, name=f"op-{reserved_fraction:.2f}")
