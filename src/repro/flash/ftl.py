"""Page-mapped flash translation layer with log-structured writes.

This is the mechanism behind every device-level effect in the paper:

* writes are performed out-of-place into an open block (§2.2.1);
* when free blocks run low, garbage collection selects victim blocks,
  relocates their valid pages and erases them (§2.2.1), producing
  device-level write amplification (§2.2.3);
* trim invalidates mappings, which is how both the ``blkdiscard``-style
  drive reset and software over-provisioning obtain their effect
  (§3.4, §4.6).

The implementation is array-based (numpy) so that experiments writing
millions of simulated pages run in seconds.  All bookkeeping is exact:
WA-D is *measured* from actual relocations, never modeled.

Host writes are *write-behind*.  A request that still fits the open
host block closes nothing and triggers no collection — its work is
``(n, 0, 0)`` by construction — and nothing reads the mapping until
that block closes, so ``write_range``/``write_pages`` only append the
request to a log and :meth:`_flush_log` applies the whole log in one
array pass.  The log is drained exactly where FTL state is observed: a
request that does not fit the open block (which closes it and may run
GC), ``trim_range``, ``mapped_pages``/``utilization``/``is_mapped``,
``check_invariants`` and ``state_arrays`` (the one read accessor for
white-box tests).  Deferral is exact for the reason
``VictimIndex.pending`` is: whatever is stale is on the log, and every
reader drains it first.

There is one host write stream: first writes and overwrites share the
open block.  Relocations have their own, which never triggers
collection.  DESIGN.md §3 says why a hint-free hot/cold split is not
modelled.

One deliberate approximation: a request that does not fit the open
block invalidates the previous versions of its whole batch before
programming it, so garbage collection triggered mid-batch will not
relocate pages the batch is about to overwrite.  Batches are bounded
by callers (at most a few hundred pages), which keeps the effect
negligible — it corresponds to the host's write buffer being visible
to the controller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, DeviceFullError, OutOfRangeError
from repro.flash.config import SSDConfig
from repro.flash.gc import (
    _BAD, _CLOSED, _FREE, _OPEN, GCPolicy, GreedyPolicy, VictimIndex,
)
from repro.obs.tracer import NULL_TRACER


@dataclass(slots=True)
class WorkUnits:
    """Physical flash work performed by one FTL call."""

    host_pages: int = 0  # pages programmed on behalf of the host
    gc_pages: int = 0  # pages programmed by GC relocation
    erases: int = 0  # blocks erased

    def merge(self, other: "WorkUnits") -> None:
        """Accumulate *other* into this instance."""
        self.host_pages += other.host_pages
        self.gc_pages += other.gc_pages
        self.erases += other.erases

    @property
    def programmed_pages(self) -> int:
        """Total pages programmed (host + GC)."""
        return self.host_pages + self.gc_pages


class FlashTranslationLayer:
    """A page-mapped FTL over the geometry described by an :class:`SSDConfig`."""

    def __init__(self, config: SSDConfig, policy: GCPolicy | None = None):
        if config.byte_addressable:
            raise ConfigError("byte-addressable devices do not use an FTL")
        self.config = config
        self.policy = policy or GreedyPolicy()

        n_logical = config.logical_pages
        n_physical = config.total_pages
        self._l2p = np.full(n_logical, -1, dtype=np.int64)
        self._p2l = np.full(n_physical, -1, dtype=np.int64)
        self._valid_count = np.zeros(config.nblocks, dtype=np.int64)
        self._state = np.full(config.nblocks, _FREE, dtype=np.int8)
        self._closed_seq = np.zeros(config.nblocks, dtype=np.int64)
        self._erase_count = np.zeros(config.nblocks, dtype=np.int64)
        self._free: list[int] = list(range(config.nblocks - 1, -1, -1))

        # Open-block write heads: "cold" takes host writes, "gc" takes
        # relocations.
        self._heads: dict[str, list[int]] = {"cold": [-1, 0], "gc": [-1, 0]}
        self._seq = 0
        # Victim-selection index (DESIGN.md §8): kept incrementally in
        # sync by every valid-count mutation below, so GC never scans
        # the block array.
        self._victim_index = VictimIndex(config.nblocks)

        ppb = config.pages_per_block
        self._ppb = ppb
        self._logical_pages = n_logical  # hot-path cache of the config property
        # Reusable 0..ppb iota: the programming paths slice it instead
        # of allocating an arange per open-block chunk.
        self._iota = np.arange(ppb, dtype=np.int64)
        # Write-behind log (module docstring): the requests programmed,
        # in order, at the cold head since the last drain.  A
        # ``write_pages`` entry has a placeholder start and its lpns in
        # ``_log_arrays`` beside their offset in the open block.
        # ``_log_room`` is what the open block has left after the log;
        # 0 while no block is open.
        self._log_starts: list[int] = []
        self._log_lens: list[int] = []
        self._log_arrays: list[tuple[int, np.ndarray]] = []
        self._log_room = 0
        # Watermarks are clamped by the physical spare capacity: with S
        # spare blocks the collector can sustainably keep at most S-2
        # blocks free (two blocks are always open for writing), so a
        # fixed fraction of nblocks would deadlock low-OP devices.
        spare_blocks = (config.total_pages - config.logical_pages) // ppb
        self._low_count = max(2, min(int(config.nblocks * config.gc_low_watermark),
                                     spare_blocks - 3))
        self._high_count = max(
            self._low_count + 1,
            min(int(config.nblocks * config.gc_high_watermark), spare_blocks - 2),
        )

        self.tracer = NULL_TRACER  # flight recorder (repro.obs)

        # Lifetime counters (pages / blocks).
        self.total_host_pages = 0
        self.total_gc_pages = 0
        self.total_erases = 0
        self.total_read_pages = 0
        self.total_trimmed_pages = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def write_pages(self, lpns: np.ndarray) -> WorkUnits:
        """Write the given logical pages (must be unique within the batch).

        Returns the physical work performed, including any garbage
        collection triggered by the writes.
        """
        n = len(lpns)
        if n == 0:
            return WorkUnits()
        lpns = np.asarray(lpns, dtype=np.int64)
        self._check_range(lpns)
        if n <= self._log_room:
            # A copy: the caller may reuse its array before the drain.
            self._log_arrays.append((self._ppb - self._log_room, lpns.copy()))
            return self._log(0, n)
        return self._write_through(lpns)

    def write_range(self, start: int, npages: int) -> WorkUnits:
        """Write ``npages`` consecutive logical pages starting at *start*."""
        if npages <= 0:
            return WorkUnits()
        if start < 0 or start + npages > self._logical_pages:
            raise OutOfRangeError("logical page outside device address space")
        if npages <= self._log_room:
            return self._log(start, npages)
        return self._write_through(
            np.arange(start, start + npages, dtype=np.int64))

    def retire_free_block(self) -> bool:
        """Retire one free block as grown-bad (fault injection).

        The block leaves the free pool permanently (state ``_BAD``:
        neither free, open, closed, nor a GC candidate), shrinking the
        over-provisioned spare capacity GC depends on.  Refuses — and
        returns ``False`` — when retirement would leave fewer free
        blocks than the GC high watermark plus a margin, since the
        collector could then never restore its target and the device
        would wedge rather than degrade.
        """
        if len(self._free) <= self._high_count + 2:
            return False
        block = self._free.pop()
        self._state[block] = _BAD
        return True

    def trim_range(self, start: int, npages: int) -> int:
        """Invalidate the mappings of a consecutive logical range.

        Returns the number of pages that actually had data.  This is the
        device-level building block for ``blkdiscard`` and for software
        over-provisioning (the trimmed range contributes free space to
        garbage collection as long as the host never writes it).
        """
        if npages < 0 or start < 0 or start + npages > self.config.logical_pages:
            raise OutOfRangeError(
                f"trim [{start}, {start + npages}) outside logical space"
            )
        self._flush_log()
        view = self._l2p[start : start + npages]
        mapped = view >= 0
        count = int(np.count_nonzero(mapped))
        if count:
            self._invalidate(view)
            view[mapped] = -1
        self.total_trimmed_pages += count
        return count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def free_blocks(self) -> int:
        """Number of blocks currently free (erased and unallocated)."""
        return len(self._free)

    @property
    def mapped_pages(self) -> int:
        """Logical pages that currently have data associated."""
        self._flush_log()
        return int(np.count_nonzero(self._l2p >= 0))

    @property
    def utilization(self) -> float:
        """Fraction of the logical space that has data associated."""
        return self.mapped_pages / self.config.logical_pages

    @property
    def erase_counts(self) -> np.ndarray:
        """Per-block erase counters (wear), as a copy."""
        return self._erase_count.copy()

    def device_write_amplification(self) -> float:
        """Lifetime WA-D measured from actual page programs."""
        if self.total_host_pages == 0:
            return 1.0
        return (self.total_host_pages + self.total_gc_pages) / self.total_host_pages

    def is_mapped(self, lpn: int) -> bool:
        """Whether the logical page currently has data associated."""
        if not 0 <= lpn < self.config.logical_pages:
            raise OutOfRangeError(f"lpn {lpn} outside logical space")
        self._flush_log()
        return bool(self._l2p[lpn] >= 0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_range(self, lpns: np.ndarray) -> None:
        if lpns.size and (int(lpns.min()) < 0 or int(lpns.max()) >= self.config.logical_pages):
            raise OutOfRangeError("logical page outside device address space")

    def _invalidate(self, ppns: np.ndarray) -> None:
        """Drop the physical pages in *ppns* (entries may be -1)."""
        live = ppns[ppns >= 0]
        if live.size == 0:
            return
        self._p2l[live] = -1
        blocks = live // self._ppb
        valid = self._valid_count
        index = self._victim_index
        pend = index.pending
        if blocks.size <= 16:
            # Small batches are what the immediate route sees: a
            # journal record that straddles a block end, a short trim.
            # Whole-array ops are disproportionately slow there, and
            # consecutive pages share a block, so the decrements are
            # applied run by run on Python ints, with one deferred
            # victim-index note per run (see VictimIndex.flush).
            last = -1
            count = 0
            for b in blocks.tolist():
                if b == last:
                    count += 1
                    continue
                if count:
                    valid[last] = int(valid[last]) - count
                    pend.append(last)
                last = b
                count = 1
            valid[last] = int(valid[last]) - count
            pend.append(last)
        else:
            # One bincount pass yields both the per-block decrement
            # counts and (via its nonzero support) the deduped set of
            # touched blocks, so the valid-count update and the
            # victim-index notes come out of the same array sweep
            # (DESIGN.md §12).
            cnt = np.bincount(blocks, minlength=len(self._state))
            touched = np.nonzero(cnt)[0]
            valid[touched] -= cnt[touched]
            pend.extend(touched[self._state[touched] == _CLOSED].tolist())
        if len(pend) > index._compact_at:
            index.maybe_compact(valid, self._state, self._closed_seq)

    def _write_through(self, lpns: np.ndarray) -> WorkUnits:
        """Drain the log, then invalidate and program *lpns* now: the
        route of every request that may close a block and collect."""
        self._flush_log()
        self._log_room = 0  # stays 0 if the device turns out to be full
        work = WorkUnits()
        self._invalidate(self._l2p[lpns])
        self._program(lpns, work, head="cold")
        self._log_room = self._ppb - self._heads["cold"][1]
        work.host_pages += lpns.size
        self.total_host_pages += lpns.size
        return work

    def _log(self, start: int, npages: int) -> WorkUnits:
        """Append one request that fits the open block to the write log."""
        self._log_room -= npages
        self._log_starts.append(start)
        self._log_lens.append(npages)
        self.total_host_pages += npages
        return WorkUnits(npages)

    def _flush_log(self) -> None:
        """Apply the logged requests to the mapping in one array pass.

        The result is what invalidate-then-program of every request in
        turn leaves: each lpn maps to its *last* logged copy, its
        pre-log copy and its earlier logged copies are invalid.
        """
        if not self._log_lens:
            return
        block, off = self._heads["cold"]
        total = self._ppb - self._log_room - off
        lens = np.array(self._log_lens)
        lpns = np.repeat(np.array(self._log_starts) - np.cumsum(lens) + lens,
                         lens) + self._iota[:total]
        for at, batch in self._log_arrays:
            lpns[at - off : at - off + batch.size] = batch
        self._log_starts.clear()
        self._log_lens.clear()
        self._log_arrays.clear()
        # A stable sort keeps log order among equal lpns, so the last
        # of each run is the copy that survives.
        order = np.argsort(lpns, kind="stable")
        ranked = lpns[order]
        last = np.append(ranked[1:] != ranked[:-1], True)
        lpns = ranked[last]  # unique
        ppns = block * self._ppb + off + order[last]
        self._invalidate(self._l2p[lpns])
        self._p2l[ppns] = lpns  # superseded copies stay -1
        self._l2p[lpns] = ppns
        self._valid_count[block] += lpns.size
        self._heads["cold"][1] = off + total

    def _program(self, lpns: np.ndarray, work: WorkUnits, head: str) -> None:
        """Program *lpns* into the given write head, chunk by chunk."""
        i = 0
        n = int(lpns.size)
        while i < n:
            block, off = self._open_block(head, work)
            take = min(self._ppb - off, n - i)
            chunk = lpns[i : i + take]
            ppns = block * self._ppb + self._iota[off : off + take]
            self._p2l[ppns] = chunk
            self._l2p[chunk] = ppns
            self._valid_count[block] += take
            self._heads[head][1] = off + take
            i += take

    def _open_block(self, head: str, work: WorkUnits) -> tuple[int, int]:
        """Return (block, offset) with at least one writable page."""
        block, off = self._heads[head]
        if block >= 0 and off < self._ppb:
            return block, off
        if block >= 0:  # current block is full: close it
            self._state[block] = _CLOSED
            self._closed_seq[block] = self._seq
            self._victim_index.close(
                block, int(self._valid_count[block]), self._seq)
            self._seq += 1
        if head == "cold" and len(self._free) <= self._low_count:
            self._collect(work)  # GC heads must never re-enter collection
        if not self._free:
            raise DeviceFullError("no free blocks available")
        new = self._free.pop()
        self._state[new] = _OPEN
        self._heads[head] = [new, 0]
        return new, 0

    def _collect(self, work: WorkUnits) -> None:
        """Run garbage collection until the high watermark is restored.

        Collection is opportunistic: if every closed block is fully
        valid, reclaiming cannot gain space, so the collector stops as
        long as a minimal reserve remains (future host overwrites will
        re-create invalid pages).  Only a device with no reclaimable
        space *and* no reserve is an error.
        """
        index = self._victim_index
        if len(index.heap) > index._compact_at:
            # VictimIndex.flush pushes without compacting; collection
            # is the periodic hook that keeps the lazy heap bounded.
            index.maybe_compact(self._valid_count, self._state,
                                self._closed_seq)
        iterations = 0
        limit = 8 * self.config.nblocks
        while len(self._free) < self._high_count:
            iterations += 1
            if iterations > limit:
                raise DeviceFullError(
                    "garbage collection cannot make progress; the device is "
                    "effectively full (check over-provisioning)"
                )
            victim = self._select_victim()
            if victim < 0:
                if len(self._free) >= 2:
                    return  # nothing reclaimable, but enough reserve to continue
                raise DeviceFullError("all closed blocks are fully valid")
            self._reclaim(victim, work)

    def _select_victim(self) -> int:
        """Pick a victim, or -1 if no closed block would yield space."""
        valid = self._valid_count
        index = self._victim_index
        victim = self.policy.select_indexed(
            index, valid, self._state, self._closed_seq)
        if valid[victim] >= self._ppb:
            # A fully valid victim yields no space; the greedy heap
            # answers the livelock-guard fallback in one peek — its
            # minimum being fully valid means *every* closed block is.
            victim = index.greedy_min(valid, self._state)[1]
            if valid[victim] >= self._ppb:
                return -1
        return victim

    def _reclaim(self, victim: int, work: WorkUnits) -> None:
        """Relocate the victim's valid pages, then erase it."""
        base = victim * self._ppb
        page_lpns = self._p2l[base : base + self._ppb]
        valid_lpns = page_lpns[page_lpns >= 0].copy()
        if valid_lpns.size:
            # Invalidate the victim's copies directly (the relocation
            # program path re-maps them): every live page sits in the
            # victim, so this is one slice store plus one counter — and
            # no victim-index pushes, since the block is about to be
            # freed anyway.
            self._p2l[base : base + self._ppb] = -1
            self._valid_count[victim] -= valid_lpns.size
            self._program(valid_lpns, work, head="gc")
            work.gc_pages += int(valid_lpns.size)
            self.total_gc_pages += int(valid_lpns.size)
        assert self._valid_count[victim] == 0
        self._state[victim] = _FREE
        self._erase_count[victim] += 1
        self._free.append(victim)
        work.erases += 1
        self.total_erases += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("gc_reclaim", "gc", {
                "victim": int(victim),
                "valid_pages": int(valid_lpns.size),
                "erase_count": int(self._erase_count[victim]),
                "free_blocks": len(self._free),
            })

    # ------------------------------------------------------------------
    # Test support
    # ------------------------------------------------------------------
    def state_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Drain the write log; return the live ``(l2p, p2l, valid_count)``.

        The only way to read the mapping arrays from outside: a raw
        attribute read would miss whatever is still on the log.
        """
        self._flush_log()
        return self._l2p, self._p2l, self._valid_count

    def check_invariants(self) -> None:
        """Verify internal consistency; raises ``AssertionError`` on bugs."""
        self._flush_log()
        mapped = np.where(self._l2p >= 0)[0]
        ppns = self._l2p[mapped]
        assert np.all(self._p2l[ppns] == mapped), "l2p/p2l are not inverse"
        valid_from_p2l = np.bincount(
            np.where(self._p2l >= 0)[0] // self._ppb, minlength=self.config.nblocks
        )
        assert np.array_equal(valid_from_p2l, self._valid_count), "valid counts drifted"
        assert np.all(self._valid_count[self._state == _FREE] == 0), "free block has data"
        free_set = set(self._free)
        assert len(free_set) == len(self._free), "duplicate blocks in free list"
        state_free = set(np.where(self._state == _FREE)[0].tolist())
        assert free_set == state_free, "free list and block states disagree"
        assert int(np.count_nonzero(self._p2l >= 0)) == mapped.size
        self._victim_index.check(self._valid_count, self._state,
                                 self._closed_seq)
