"""A naive page-mapped FTL: the independent reference for ``flash/ftl.py``.

Written from the model's description (DESIGN.md §3, §8.2, the FTL
module docstring), not from its code: ``l2p``/``p2l`` dicts in the
shape of the wiscsee page-map FTLs (SNIPPETS.md 2-3), one page at a
time, every write applied *immediately*, victims found by scanning
every block.  It imports the device geometry and the block-state codes
and nothing else from ``repro.flash``.  ``occupied`` beside the valid
``p2l`` is kv-emulator's split (SNIPPETS.md 1) and carries the NAND
invariant: no page is programmed twice without an erase in between.
"""

from __future__ import annotations

from repro.flash.config import SSDConfig
from repro.flash.gc import _CLOSED, _FREE, _OPEN


class NaiveFTL:
    def __init__(self, config: SSDConfig, fifo: bool = False):
        self.ppb, self.nblocks = config.pages_per_block, config.nblocks
        self.fifo, self.separation = fifo, config.stream_separation
        self.l2p: dict[int, int] = {}
        self.p2l: dict[int, int] = {}  # valid pages only
        self.occupied: set[int] = set()  # programmed since the last erase
        self.state = [_FREE] * self.nblocks
        self.closed_at: dict[int, int] = {}
        self.closes = 0
        self.erase_counts = [0] * self.nblocks
        self.free = list(range(self.nblocks - 1, -1, -1))  # next block: the last
        self.heads: dict[str, tuple[int, int] | None] = dict.fromkeys(
            ("cold", "hot", "gc", "gc2"))
        self.relocations: dict[int, int] = {}  # since the last host write
        self.host_pages = self.gc_pages = 0
        spare = (config.total_pages - config.logical_pages) // self.ppb
        self.low = max(2, min(int(self.nblocks * config.gc_low_watermark), spare - 3))
        self.high = max(self.low + 1,
                        min(int(self.nblocks * config.gc_high_watermark), spare - 2))

    def valid_in(self, block: int) -> int:
        return sum(p in self.p2l for p in range(block * self.ppb, (block + 1) * self.ppb))

    def wa_d(self) -> float:
        return (self.host_pages + self.gc_pages) / self.host_pages if self.host_pages else 1.0

    def write(self, lpns: list[int]) -> tuple[int, int, int]:
        """Invalidate the whole request, then program it; first writes
        before overwrites when the device separates streams."""
        work = [len(lpns), 0, 0]
        hot = [lpn for lpn in lpns if self.separation and lpn in self.l2p]
        cold = [lpn for lpn in lpns if lpn not in hot]
        for lpn in lpns:
            self.p2l.pop(self.l2p.get(lpn), None)
            self.relocations.pop(lpn, None)
        for head, group in (("cold", cold), ("hot", hot)):
            for lpn in group:
                self._program(lpn, head, work)
        self.host_pages += len(lpns)
        return tuple(work)

    def trim(self, start: int, npages: int) -> int:
        mapped = [lpn for lpn in range(start, start + npages) if lpn in self.l2p]
        for lpn in mapped:
            del self.p2l[self.l2p.pop(lpn)]
        return len(mapped)

    def _program(self, lpn: int, head: str, work: list[int]) -> None:
        if self.heads[head] is None or self.heads[head][1] == self.ppb:
            self._next_block(head, work)
        block, offset = self.heads[head]
        ppn = block * self.ppb + offset
        assert ppn not in self.occupied, "program of an occupied page without an erase"
        self.occupied.add(ppn)
        self.l2p[lpn], self.p2l[ppn] = ppn, lpn
        self.heads[head] = (block, offset + 1)

    def _next_block(self, head: str, work: list[int]) -> None:
        if self.heads[head] is not None:
            full = self.heads[head][0]
            self.state[full] = _CLOSED
            self.closed_at[full] = self.closes
            self.closes += 1
        if head in ("cold", "hot") and len(self.free) <= self.low:
            self._collect(work)  # relocation never re-enters collection
        block = self.free.pop()
        self.state[block] = _OPEN
        self.heads[head] = (block, 0)

    def _collect(self, work: list[int]) -> None:
        def greedy(block):  # fewest valid pages, lowest block among equals
            return (self.valid_in(block), block)

        while len(self.free) < self.high:
            closed = [b for b in range(self.nblocks) if self.state[b] == _CLOSED]
            victim = min(closed, key=self.closed_at.get if self.fifo else greedy)
            if self.valid_in(victim) == self.ppb:  # yields nothing: best one instead
                victim = min(closed, key=greedy)
                if self.valid_in(victim) == self.ppb:
                    assert len(self.free) >= 2, "device full"
                    return
            self._reclaim(victim, work)

    def _reclaim(self, victim: int, work: list[int]) -> None:
        pages = range(victim * self.ppb, (victim + 1) * self.ppb)
        survivors = [self.p2l.pop(p) for p in pages if p in self.p2l]
        # Data relocated before (since its last host write) is frozen.
        frozen = [lpn for lpn in survivors
                  if self.separation and self.relocations.get(lpn, 0) >= 1]
        for lpn in survivors:
            self.relocations[lpn] = self.relocations.get(lpn, 0) + 1
        for lpn in (lpn for lpn in survivors if lpn not in frozen):
            self._program(lpn, "gc", work)
        for lpn in frozen:
            self._program(lpn, "gc2", work)
        self.occupied.difference_update(pages)  # the erase
        self.state[victim] = _FREE
        self.erase_counts[victim] += 1
        self.free.append(victim)
        work[1] += len(survivors)
        work[2] += 1
        self.gc_pages += len(survivors)
