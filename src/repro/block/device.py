"""The OS block layer: the one object between filesystem and drive.

The paper measures device throughput "as observed by the OS" with
``iostat`` and host write access patterns with ``blktrace`` (§3.3,
§4.3), and implements software over-provisioning (§4.6) by showing the
filesystem fewer LBAs than the trimmed drive has.  :class:`BlockDevice`
is that layer in the simulator: the filesystem mounts it, it exposes a
prefix of the :class:`~repro.flash.ssd.SSD`'s logical space (a reserved
tail is never written and acts as extra spare space for garbage
collection), refuses requests outside that range, re-drives writes
that hit a transient device error within its retry budget
(:class:`~repro.faults.retry.RetryPolicy`), and tells attached
observers (:class:`~repro.block.blktrace.BlkTrace`) about each write.

``bytes_written`` / ``bytes_read`` (``block.*`` in a snapshot) are the
cumulative per-device counters ``iostat`` reports deltas of: a window's
MB/s is their change between the two snapshots that bound the window
over the virtual time between them, each request counted whole where
it executes, like a KV operation (``MetricsCollector.sample``).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.errors import ConfigError, OutOfRangeError
from repro.flash.ssd import SSD


class BlockObserver(Protocol):
    """Interface for blktrace-style observers of host writes, the
    requests Fig 4 traces.  *t* is the submission time: a request never
    moves the clock (its caller advances by the latency returned), so
    it is read once served."""

    def on_write(self, t: float, start: int, npages: int, lpns: np.ndarray | None) -> None:
        """Called for every write request (either a range or a page list)."""


class BlockDevice:
    """The host-visible block device over a simulated SSD.

    *reserved_fraction* of the drive's logical space, at its tail, is
    kept from the filesystem: software over-provisioning, provided the
    drive was trimmed beforehand (§4.6).
    """

    def __init__(self, ssd: SSD, reserved_fraction: float = 0.0):
        if not 0.0 <= reserved_fraction < 1.0:
            raise ConfigError("reserved_fraction must be in [0, 1)")
        npages = int(ssd.npages * (1.0 - reserved_fraction))
        if npages <= 0:
            raise ConfigError("the exposed range would be empty")
        self.ssd = ssd
        self.page_size = ssd.page_size  # bytes per logical page
        self.npages = npages  # logical pages exposed: [0, npages)
        # Retry-with-backoff over transient device errors (fault
        # injection; repro.faults.RetryPolicy).  None — the default —
        # submits every write once.
        self.retry = None
        # Bytes of the requests that succeeded (a retried write once).
        self.bytes_written = 0
        self.bytes_read = 0
        self._observers: list[BlockObserver] = []

    def attach(self, observer: BlockObserver) -> None:
        """Register an observer for subsequent requests."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # Device protocol
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Exposed capacity in bytes."""
        return self.npages * self.page_size

    def counters(self) -> dict:
        """The cumulative byte counters, layer-labelled."""
        return {"block.bytes_written": self.bytes_written,
                "block.bytes_read": self.bytes_read}

    def write_pages(self, lpns: np.ndarray, background: bool = False) -> float:
        """Write a batch of (unique) pages; returns host-visible latency."""
        arr = np.asarray(lpns)
        if arr.size == 0:
            return 0.0
        if int(arr.min()) < 0 or int(arr.max()) >= self.npages:
            raise OutOfRangeError(
                f"write outside the exposed range of {self.npages} pages")
        retry = self.retry
        if retry is None:
            latency = self.ssd.write_pages(lpns, background=background)
        else:
            latency = retry.run(
                lambda: self.ssd.write_pages(lpns, background=background))
        self.bytes_written += int(arr.size) * self.page_size
        for observer in self._observers:
            observer.on_write(self.ssd.clock.now, -1, int(arr.size), arr)
        return latency

    def write_range(self, start: int, npages: int, background: bool = False) -> float:
        """Write a consecutive page range; returns host-visible latency."""
        if npages <= 0:
            return 0.0
        if start < 0 or start + npages > self.npages:
            self._refuse(start, npages)
        retry = self.retry
        if retry is None:
            latency = self.ssd.write_range(start, npages, background=background)
        else:
            latency = retry.run(lambda: self.ssd.write_range(
                start, npages, background=background))
        self.bytes_written += npages * self.page_size
        for observer in self._observers:
            observer.on_write(self.ssd.clock.now, start, npages, None)
        return latency

    def read_range(self, start: int, npages: int) -> float:
        """Read a consecutive page range; returns host-visible latency."""
        if npages <= 0:
            return 0.0
        if start < 0 or start + npages > self.npages:
            self._refuse(start, npages)
        latency = self.ssd.read_range(start, npages)
        self.bytes_read += npages * self.page_size
        return latency

    def read_ranges(self, starts, lens) -> list[float]:
        """``read_range`` of every ``(start, npages)`` as one submission;
        each range is still its own request to SMART."""
        exposed = self.npages
        pages = 0
        for i, (start, npages) in enumerate(zip(starts, lens)):
            if npages > 0:
                if start < 0 or start + npages > exposed:
                    # Like the loop: the requests before the bad one are served.
                    self.read_ranges(starts[:i], lens[:i])
                    self._refuse(start, npages)
                pages += npages
        latencies = self.ssd.read_ranges(starts, lens)
        self.bytes_read += pages * self.page_size
        return latencies

    def trim_range(self, start: int, npages: int) -> None:
        """TRIM a consecutive page range."""
        if npages < 0 or start < 0 or start + npages > self.npages:
            self._refuse(start, npages)
        self.ssd.trim_range(start, npages)

    def backlog_seconds(self) -> float:
        """Seconds of queued device work (used for engine stall logic)."""
        return self.ssd.backlog_seconds()

    def _refuse(self, start: int, npages: int) -> None:
        raise OutOfRangeError(
            f"range [{start}, {start + npages}) outside the exposed range "
            f"of {self.npages} pages")
