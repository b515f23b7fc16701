"""Naive device timing models: the independent references for the two
timelines of ``flash/ssd.py`` (DESIGN.md §4.2).

Written from the models' descriptions, not from their code.

``NaiveScalarTiming`` is one busy horizon: a write's flash time is its
programs and erases divided by the channel count, queued behind the
horizon; a foreground write completes once transferred *and* once the
backlog left past that fits the cache window; a read pays its service
floor times a contention factor that grows with the write backlog it
finds, saturating at the contention window.

``NaiveTiming`` is one busy horizon and one write-cache horizon per
channel, and nothing else — no running maxima, no early exit from the
write-cache admission check, no wrap-by-subtraction.  A write's pages
go round-robin from the cursor through a general ``divmod`` stripe,
every foreground write sums the whole write backlog, and a read counts
its pages per channel one page at a time.

Both take a write's flash work (host pages, GC relocations, erases)
from ``naive_ftl.py``, so the device's own FTL is not consulted
either, and both fold into QLC (``fold_penalty``) once the write
backlog passes 1.25 cache windows.  Floats are combined in the order
the models' formulas are written, which is what lets the lockstep
compare with ``==``.
"""

from __future__ import annotations

from collections import Counter

from repro.flash.config import SSDConfig


class NaiveScalarTiming:
    def __init__(self, config: SSDConfig):
        self.cfg = config
        self.busy = 0.0
        self.fold_events = 0

    def backlog(self, now: float) -> float:
        return max(0.0, self.busy - now)

    def drain_wait(self, now: float) -> float:
        return self.backlog(now)

    def write(self, now: float, npages: int, work: tuple[int, int, int],
              background: bool) -> float:
        cfg = self.cfg
        host_pages, gc_pages, erases = work
        fold = 1.0
        if cfg.fold_penalty > 1.0 and self.backlog(now) > 1.25 * cfg.cache_drain_window:
            fold = cfg.fold_penalty
            self.fold_events += 1
        flash = ((host_pages + gc_pages) * cfg.program_time
                 + erases * cfg.erase_time) / cfg.channels * fold
        self.busy = max(self.busy, now) + flash
        if background:
            return 0.0
        transfer = npages * cfg.page_size / cfg.bus_bytes_per_s
        completion = max(now + transfer + cfg.write_latency,
                         self.busy - cfg.cache_drain_window)
        return completion - now

    def read(self, now: float, start: int, npages: int) -> float:
        cfg = self.cfg
        latency = (cfg.read_latency + npages * cfg.page_read_time / cfg.channels
                   + npages * cfg.page_size / cfg.bus_bytes_per_s)
        backlog = self.backlog(now)
        if backlog > 0:
            # Read contention: up to 2x extra service, saturating at
            # 50 ms of write backlog.
            latency *= 1.0 + 2.0 * min(1.0, backlog / 0.050)
        return latency

    def settle(self, now: float) -> None:
        self.busy = now


class NaiveTiming:
    def __init__(self, config: SSDConfig, start: float = 0.0):
        self.cfg = config
        self.n = config.channels
        self.busy = [start] * self.n  # FIFO occupancy: program, erase, read
        self.write_busy = [start] * self.n  # write-cache drain: program, erase
        self.cursor = 0
        self.fold_events = 0

    def backlog(self, now: float) -> float:
        """Mean positive write backlog per channel."""
        total = 0.0
        for b in self.write_busy:
            if b - now > 0.0:
                total += b - now
        return total / self.n

    def drain_wait(self, now: float) -> float:
        """Until the busiest channel is idle, reads included."""
        return max(0.0, max(self.busy) - now)

    def _queue(self, channel: int, now: float, seconds: float) -> None:
        self.busy[channel] = max(self.busy[channel], now) + seconds
        self.write_busy[channel] = max(self.write_busy[channel], now) + seconds

    def write(self, now: float, npages: int, work: tuple[int, int, int],
              background: bool) -> float:
        """Queue one write's flash work; its host-visible latency."""
        cfg, n = self.cfg, self.n
        host_pages, gc_pages, erases = work
        window = cfg.cache_drain_window
        fold = 1.0
        if cfg.fold_penalty > 1.0 and self.backlog(now) > 1.25 * window:
            fold = cfg.fold_penalty
            self.fold_events += 1
        pages = host_pages + gc_pages
        base, extra = divmod(pages, n)
        for i in range(n):
            count = base + (1 if i < extra else 0)
            if count:
                self._queue((self.cursor + i) % n, now,
                            count * cfg.program_time * fold)
        if pages:
            # Past the lanes that got an extra page; one step when every
            # lane got the same count.
            self.cursor = (self.cursor + (extra if extra else 1)) % n
        if erases:
            self._queue(self.cursor, now, erases * cfg.erase_time * fold)
            self.cursor = (self.cursor + 1) % n
        if background:
            return 0.0
        transfer = npages * cfg.page_size / cfg.bus_bytes_per_s
        completion = max(now + transfer + cfg.write_latency,
                         now + self.backlog(now) - window)
        return completion - now

    def read(self, now: float, start: int, npages: int) -> float:
        """Queue one read's page reads; its host-visible latency."""
        cfg = self.cfg
        completion = now
        per_channel = Counter((start + i) % self.n for i in range(npages))
        for channel, count in per_channel.items():
            done = max(self.busy[channel], now) + count * cfg.page_read_time
            self.busy[channel] = done
            completion = max(completion, done)
        return (cfg.read_latency + npages * cfg.page_size / cfg.bus_bytes_per_s
                + (completion - now))

    def settle(self, now: float) -> None:
        self.busy = [now] * self.n
        self.write_busy = [now] * self.n
