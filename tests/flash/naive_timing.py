"""A naive per-channel timing model: the independent reference for the
channel half of ``flash/ssd.py`` (DESIGN.md §4.3).

Written from the model's description, not from its code: one busy
horizon and one write-cache horizon per channel, and nothing else —
no running maxima, no early exit from the write-cache admission check,
no wrap-by-subtraction.  A write's pages go round-robin from the
cursor through a general ``divmod`` stripe, every foreground write
sums the whole write backlog, and a read counts its pages per channel
one page at a time.  The flash work of a write (host pages, GC
relocations, erases) comes from ``naive_ftl.py``, so the device's own
FTL is not consulted either.  Floats are combined in the order the
model's formulas are written, which is what lets the lockstep compare
with ``==``.
"""

from __future__ import annotations

from collections import Counter

from repro.flash.config import SSDConfig


class NaiveTiming:
    def __init__(self, config: SSDConfig):
        self.cfg = config
        self.n = config.channels
        self.busy = [0.0] * self.n  # FIFO occupancy: program, erase, read
        self.write_busy = [0.0] * self.n  # write-cache drain: program, erase
        self.cursor = 0

    def backlog(self, now: float) -> float:
        """Mean positive write backlog per channel."""
        total = 0.0
        for b in self.write_busy:
            if b - now > 0.0:
                total += b - now
        return total / self.n

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
