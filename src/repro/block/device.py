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
(:class:`~repro.faults.retry.RetryPolicy`), and, when asked, counts
the writes each logical page takes (``lba_histogram``, Fig 4).  It has
one entry per direction, both taking device runs: ``write_runs`` (all
the runs of a call are one request) and ``read_runs`` (each run is its
own request).

``bytes_written`` / ``bytes_read`` (``block.*`` in a snapshot) are the
cumulative per-device counters ``iostat`` reports deltas of: a window's
MB/s is their change between the two snapshots that bound the window
over the virtual time between them, each request counted whole where
it executes, like a KV operation (``MetricsCollector.sample``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, DeviceError, OutOfRangeError
from repro.flash.ftl import run_pages
from repro.flash.ssd import SSD


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
        # Writes per logical page of the whole drive, so a reserved tail
        # counts as never written (the paper's blktrace, Fig 4).  None —
        # the default — counts nothing; see :meth:`count_lba_writes`.
        self.lba_histogram: np.ndarray | None = None

    def count_lba_writes(self) -> None:
        """Count, from now on, the writes each logical page takes."""
        self.lba_histogram = np.zeros(self.ssd.npages, dtype=np.int64)

    # ------------------------------------------------------------------
    # Device protocol
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """The cumulative byte counters, layer-labelled."""
        return {"block.bytes_written": self.bytes_written,
                "block.bytes_read": self.bytes_read}

    def write_runs(self, starts, lens, background: bool = False) -> float:
        """Write the disjoint page runs ``(starts[i], lens[i])`` as one
        host request; returns host-visible latency.  A run outside the
        exposed range refuses the whole request before any is submitted."""
        try:
            (start,), (npages,) = starts, lens  # one run: no array work
        except ValueError:
            npages = run_pages(starts, lens, self.npages)
        else:
            if npages < 0 or start < 0 or start + npages > self.npages:
                self._refuse(start, npages)
        if npages == 0:
            return 0.0
        retry = self.retry
        if retry is None:
            latency = self.ssd.write_runs(starts, lens, background)
        else:
            latency = retry.run(
                lambda: self.ssd.write_runs(starts, lens, background))
        self.bytes_written += npages * self.page_size
        histogram = self.lba_histogram
        if histogram is not None:
            for start, run in zip(starts, lens):
                histogram[start:start + run] += 1
        return latency

    def read_runs(self, starts, lens) -> list[float]:
        """Read the page runs ``(starts[i], lens[i])`` as one submission;
        each run is still its own request to SMART.  A run outside the
        exposed range raises once the runs before it are served."""
        try:
            (start,), (npages,) = starts, lens  # one run: no batch
        except ValueError:
            pass
        else:
            if npages and (npages < 0 or start < 0 or start + npages > self.npages):
                self._refuse(start, npages)
            latencies = self.ssd.read_runs(starts, lens)
            self.bytes_read += npages * self.page_size
            return latencies
        if len(starts) != len(lens):
            raise DeviceError(f"{len(starts)} starts for {len(lens)} lengths")
        exposed = self.npages
        pages = 0
        for i, (start, npages) in enumerate(zip(starts, lens)):
            if npages:
                if npages < 0 or start < 0 or start + npages > exposed:
                    # Like the loop: the requests before the bad one are served.
                    self.read_runs(starts[:i], lens[:i])
                    self._refuse(start, npages)
                pages += npages
        latencies = self.ssd.read_runs(starts, lens)
        self.bytes_read += pages * self.page_size
        return latencies

    def trim_range(self, start: int, npages: int) -> None:
        """TRIM a consecutive page range."""
        if npages < 0 or start < 0 or start + npages > self.npages:
            self._refuse(start, npages)
        self.ssd.trim_range(start, npages)

    def _refuse(self, start: int, npages: int) -> None:
        raise OutOfRangeError(
            f"range [{start}, {start + npages}) outside the exposed range "
            f"of {self.npages} pages")
