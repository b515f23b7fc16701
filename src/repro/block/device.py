"""OS-level block device wrapper with observation hooks.

The paper measures device throughput "as observed by the OS" with
``iostat`` and host write access patterns with ``blktrace`` (§3.3,
§4.3).  :class:`BlockDevice` is the corresponding observation point in
the simulator: it forwards I/O to the :class:`~repro.flash.ssd.SSD`
and notifies registered observers (:class:`~repro.block.iostat.IOStat`,
:class:`~repro.block.blktrace.BlkTrace`) about every request.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.flash.ssd import SSD


class BlockObserver(Protocol):
    """Interface for iostat/blktrace-style request observers."""

    def on_write(self, t: float, start: int, npages: int, lpns: np.ndarray | None) -> None:
        """Called for every write request (either a range or a page list)."""

    def on_read(self, t: float, start: int, npages: int) -> None:
        """Called for every read request (always a consecutive range)."""


class BlockDevice:
    """The host-visible block device over a simulated SSD."""

    def __init__(self, ssd: SSD):
        self.ssd = ssd
        self._clock = ssd.clock  # hot-path cache for request timestamps
        self._observers: list[BlockObserver] = []

    def attach(self, observer: BlockObserver) -> None:
        """Register an observer for subsequent requests."""
        self._observers.append(observer)

    def detach(self, observer: BlockObserver) -> None:
        """Unregister a previously attached observer."""
        self._observers.remove(observer)

    # ------------------------------------------------------------------
    # Device protocol
    # ------------------------------------------------------------------
    @property
    def page_size(self) -> int:
        """Bytes per logical page."""
        return self.ssd.page_size

    @property
    def npages(self) -> int:
        """Logical pages exposed by the device."""
        return self.ssd.npages

    @property
    def capacity_bytes(self) -> int:
        """Nominal device capacity in bytes."""
        return self.ssd.capacity_bytes

    def write_pages(self, lpns: np.ndarray, background: bool = False) -> float:
        """Write a batch of (unique) pages; returns host-visible latency."""
        t = self._clock.now
        latency = self.ssd.write_pages(lpns, background=background)
        if self._observers:
            arr = np.asarray(lpns)
            for observer in self._observers:
                observer.on_write(t, -1, int(arr.size), arr)
        return latency

    def write_range(self, start: int, npages: int, background: bool = False) -> float:
        """Write a consecutive page range; returns host-visible latency."""
        if npages <= 0:
            return 0.0
        t = self._clock.now
        latency = self.ssd.write_range(start, npages, background=background)
        for observer in self._observers:
            observer.on_write(t, start, npages, None)
        return latency

    def read_range(self, start: int, npages: int) -> float:
        """Read a consecutive page range; returns host-visible latency."""
        if npages <= 0:
            return 0.0
        t = self._clock.now
        latency = self.ssd.read_range(start, npages)
        for observer in self._observers:
            observer.on_read(t, start, npages)
        return latency

    def read_ranges(self, starts, lens) -> list[float]:
        """``read_range`` of every ``(start, npages)`` as one submission;
        each range is still its own request to SMART and the observers."""
        t = self._clock.now
        latencies = self.ssd.read_ranges(starts, lens)
        for observer in self._observers:
            for start, npages in zip(starts, lens):
                if npages > 0:
                    observer.on_read(t, start, npages)
        return latencies

    def trim_range(self, start: int, npages: int) -> None:
        """TRIM a consecutive page range."""
        self.ssd.trim_range(start, npages)

    def backlog_seconds(self) -> float:
        """Seconds of queued device work (used for engine stall logic)."""
        return self.ssd.backlog_seconds()
