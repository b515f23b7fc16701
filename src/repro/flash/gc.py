"""Garbage-collection victim-selection policies.

The FTL calls a policy to choose which closed block to reclaim.  Every
stack runs the classical *greedy* policy (fewest valid pages first),
which is what enterprise FTLs approximate and what the analytical
models cited by the paper [21, 31, 67] assume.  *FIFO* (oldest closed
block first) is the regime with an exact closed form: under uniform
random overwrites its WA-D sits above greedy's and just under the FIFO
fixed point, and ``tests/flash/test_wa_closed_forms.py`` holds both
policies to the closed forms in ``tests/flash/wa_model.py``.  Tests
build it as ``SSD(config, clock, FifoPolicy())``.

Selection never scans the block array (DESIGN.md §8): each policy's
``select_indexed`` reads a :class:`VictimIndex` the FTL keeps
incrementally up to date, which answers the policy's argmin over the
closed blocks — fewest valid pages, oldest close — including its
tie-breaking.  The argmin itself is spelled out, as a whole-device
scan, in ``tests/flash/test_gc_index.py`` and in the naive FTL
(``tests/flash/naive_ftl.py``), which hold the index to it victim for
victim.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush

import numpy as np

from repro.errors import ConfigError

# Block-state codes shared with the FTL (which imports them from
# here, so the two modules cannot disagree on the encoding).
_FREE = 0
_OPEN = 1
_CLOSED = 2
_BAD = 3  # grown bad block, retired from the pool (fault injection)


class VictimIndex:
    """Incrementally maintained victim candidates over closed blocks.

    Two lazy structures answer the two argmins the built-in policies
    need in O(log n) amortized instead of an O(nblocks) scan:

    * ``heap`` — min-heap of ``(valid_count, block)`` entries.  The
      tuple order is greedy's argmin and its tie-breaking: fewest
      valid pages first, lowest block index among ties.  Entries are
      never removed eagerly; a popped entry is *live* iff the block is
      still closed and its valid count still matches (closed blocks'
      counts only ever decrease, and ``closed_seq`` disambiguates
      re-closed blocks for the deque).
    * ``pending`` — blocks whose valid count decremented since the
      heap was last consulted.  The FTL's invalidations only append
      the touched block here (one ``list.append``, no state probe, no
      push); :meth:`flush` reconciles the heap — one push per *unique*
      touched block at its *current* count — right before any greedy
      query.  Deferral is exact: between queries the heap may go
      stale, but every stale block sits in ``pending``, so the flush
      restores the invariant "every closed block has a live entry"
      before the first pop.
    * ``fifo`` — deque of ``(closed_seq, block)`` in close order, so
      the head (after skipping stale entries) is the oldest closed
      block — FIFO's argmin over unique, monotone sequence numbers.
      Close order matters, so closes bypass ``pending``.

    Both lazy structures are compacted/flushed in place when they
    outgrow a small multiple of the device's block count, keeping
    memory bounded over arbitrarily long runs.  The FTL owns all
    mutation hooks; policies only read.
    """

    __slots__ = ("heap", "fifo", "pending", "_compact_at")

    def __init__(self, nblocks: int):
        self.heap: list[tuple[int, int]] = []
        self.fifo: deque[tuple[int, int]] = deque()
        self.pending: list[int] = []
        self._compact_at = max(64, 4 * nblocks)

    def close(self, block: int, valid: int, seq: int) -> None:
        """A block just transitioned OPEN → CLOSED.  (An erase needs no
        hook: the reclaimed block's entries go stale and stay lazy.)"""
        heappush(self.heap, (valid, block))
        self.fifo.append((seq, block))

    def flush(self, valid_count, state) -> None:
        """Reconcile deferred decrements into the greedy heap.

        Iterating a set of ints is deterministic for given contents,
        and heap *semantics* (which entry is the minimum) do not
        depend on push order, so deferral cannot perturb victim
        choice.
        """
        pending = self.pending
        if not pending:
            return
        heap = self.heap
        for block in set(pending):
            if state[block] == _CLOSED:
                heappush(heap, (int(valid_count[block]), block))
        pending.clear()

    def greedy_min(self, valid_count, state) -> tuple[int, int] | None:
        """Live ``(valid, block)`` minimum, or None if nothing is closed.

        Pending decrements are flushed first; stale heap entries are
        discarded on the way.  The returned entry is *not* consumed
        (callers reclaim the block immediately, which lazily
        invalidates it via the state check).
        """
        if self.pending:
            self.flush(valid_count, state)
        heap = self.heap
        while heap:
            valid, block = entry = heap[0]
            if state[block] == _CLOSED and valid_count[block] == valid:
                return entry
            heappop(heap)
        return None

    def fifo_min(self, valid_count, state, closed_seq) -> int | None:
        """Oldest closed block, or None if nothing is closed."""
        fifo = self.fifo
        while fifo:
            seq, block = fifo[0]
            if state[block] == _CLOSED and closed_seq[block] == seq:
                return block
            fifo.popleft()
        return None

    def maybe_compact(self, valid_count, state, closed_seq) -> None:
        """Drop stale entries in bulk once the structures outgrow the
        device (amortized O(1) per push; called by the FTL after
        maintenance bursts).

        Pending decrements are flushed first so the exact-match filter
        below cannot drop a block's only current entry.
        """
        self.flush(valid_count, state)
        if len(self.heap) > self._compact_at:
            self.heap = [
                (valid, block)
                for valid, block in self.heap
                if state[block] == _CLOSED and valid_count[block] == valid
            ]
            heapify(self.heap)
        if len(self.fifo) > self._compact_at:
            self.fifo = deque(
                (seq, block)
                for seq, block in self.fifo
                if state[block] == _CLOSED and closed_seq[block] == seq
            )

    def check(self, valid_count, state, closed_seq) -> None:
        """Verify every closed block is answerable (test support)."""
        self.flush(valid_count, state)
        closed = np.where(state == _CLOSED)[0]
        live_heap = {
            (valid, block)
            for valid, block in self.heap
            if state[block] == _CLOSED and valid_count[block] == valid
        }
        live_fifo = {
            (seq, block)
            for seq, block in self.fifo
            if state[block] == _CLOSED and closed_seq[block] == seq
        }
        for block in closed.tolist():
            key = (int(valid_count[block]), block)
            assert key in live_heap, f"block {block} missing from greedy heap"
            fkey = (int(closed_seq[block]), block)
            assert fkey in live_fifo, f"block {block} missing from FIFO deque"


class GCPolicy:
    """Interface for victim selection among closed blocks."""

    name = "abstract"

    def select_indexed(self, index: VictimIndex, valid_count, state,
                       closed_seq) -> int:
        """Return the closed block to reclaim.

        ``valid_count[b]`` is the number of still-valid pages in block
        *b*; ``state[b]`` is its block-state code (only closed blocks
        are eligible); ``closed_seq[b]`` is the monotonically increasing
        sequence number assigned when *b* was closed (for age-based
        policies); *index* answers the argmins over them.
        """
        raise NotImplementedError


class GreedyPolicy(GCPolicy):
    """Pick the closed block with the fewest valid pages (min-valid)."""

    name = "greedy"

    def select_indexed(self, index: VictimIndex, valid_count, state,
                       closed_seq) -> int:
        entry = index.greedy_min(valid_count, state)
        if entry is None:
            raise ConfigError("no closed block available for garbage collection")
        return entry[1]


class FifoPolicy(GCPolicy):
    """Pick the oldest closed block regardless of valid count.

    FIFO approximates a purely log-structured FTL without hot/cold
    separation; under random writes it relocates more valid data than
    greedy and therefore exhibits a higher WA-D.
    """

    name = "fifo"

    def select_indexed(self, index: VictimIndex, valid_count, state,
                       closed_seq) -> int:
        block = index.fifo_min(valid_count, state, closed_seq)
        if block is None:
            raise ConfigError("no closed block available for garbage collection")
        return block
