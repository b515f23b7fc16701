"""Indexed GC victim selection vs a whole-device scan (DESIGN.md §8).

The FTL keeps a :class:`~repro.flash.gc.VictimIndex` (lazy greedy heap
+ FIFO deque) in sync with every valid-count mutation so victim
selection never scans the block array.  What the index must answer is
each policy's argmin over the closed blocks; ``expected_victim``
computes that argmin here, by scanning the FTL's state, every time the
collector is about to reclaim a block.  GC-heavy workloads must pick
the *expected victim every time* for greedy and FIFO.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clock import VirtualClock
from repro.flash.config import SSDConfig
from repro.flash.gc import _CLOSED, FifoPolicy, GreedyPolicy, VictimIndex
from repro.flash.ssd import SSD
from repro.rng import substream


def build_ssd(policy) -> SSD:
    # Low over-provisioning + high utilization: the collector runs
    # constantly and every closed block is a plausible victim.
    config = SSDConfig(
        page_size=4096, pages_per_block=32, nblocks=64,
        hw_overprovision=0.20,
    )
    return SSD(config, VirtualClock(), policy)


def expected_victim(ftl) -> int:
    """The policy's victim by scanning every block (``min`` keeps the
    first of equals, so each list's order is the tie-break)."""
    valid = ftl.state_arrays()[2].tolist()
    closed = np.flatnonzero(ftl._state == _CLOSED).tolist()  # by block index
    if isinstance(ftl.policy, FifoPolicy):
        victim = min(closed, key=ftl._closed_seq.__getitem__)  # the oldest
    else:
        victim = min(closed, key=valid.__getitem__)
    if valid[victim] >= ftl.config.pages_per_block:
        # A fully valid block yields no space: fall back to greedy.
        victim = min(closed, key=valid.__getitem__)
    return victim


def record_victims(ssd: SSD) -> tuple[list[int], list[int]]:
    """Capture the (chosen, expected) victim sequences by wrapping
    ``_reclaim``."""
    victims: list[int] = []
    expected: list[int] = []
    ftl = ssd.ftl
    original = ftl._reclaim

    def spy(victim, work):
        expected.append(expected_victim(ftl))
        victims.append(int(victim))
        return original(victim, work)

    ftl._reclaim = spy
    return victims, expected


def drive_gc_heavy(ssd: SSD, seed: int = 7, rounds: int = 400) -> None:
    """Random overwrites + periodic trims at ~83% utilization."""
    rng = substream(seed, "gc-heavy")
    npages = ssd.config.logical_pages
    ssd.write_range(0, npages)  # fill the logical space
    for i in range(rounds):
        lpns = np.unique(rng.integers(0, npages, size=17))
        ssd.write_pages(lpns)
        if i % 7 == 0:
            start = int(rng.integers(0, npages - 40))
            ssd.trim_range(start, 40)


POLICIES = [("greedy", GreedyPolicy), ("fifo", FifoPolicy)]


@pytest.mark.parametrize("name,policy_cls", POLICIES, ids=[p[0] for p in POLICIES])
def test_indexed_matches_scan_oracle_block_for_block(name, policy_cls):
    ssd = build_ssd(policy_cls())
    victims, expected = record_victims(ssd)
    drive_gc_heavy(ssd)

    # The workload must actually stress the collector.
    assert len(victims) > 200
    # Victim-for-victim identity — not just aggregate equality.
    assert victims == expected
    assert ssd.ftl.total_erases == len(victims)
    ssd.ftl.check_invariants()  # includes VictimIndex.check


def test_fully_valid_fallback_folded_into_index():
    """FIFO's oldest block being fully valid must divert to the greedy
    minimum through the index — the choice a rescan would make."""
    ssd = build_ssd(FifoPolicy())
    ftl = ssd.ftl
    victims, expected = record_victims(ssd)
    diverted: list[bool] = []  # per reclaim: victim is not the oldest block
    reclaim = ftl._reclaim

    def note_diversion(victim, work):
        closed = np.flatnonzero(ftl._state == _CLOSED)
        oldest = closed[np.argmin(ftl._closed_seq[closed])]
        diverted.append(victim != oldest)
        return reclaim(victim, work)

    ftl._reclaim = note_diversion
    npages = ssd.config.logical_pages
    ssd.write_range(0, npages)  # sequential fill: closed blocks are
    # fully valid, and stay so where no overwrite lands
    rng = substream(11, "fallback")
    for lowest in (npages // 2, 0):  # spare the oldest blocks, then don't
        for _ in range(150):
            ssd.write_pages(np.unique(rng.integers(lowest, npages, size=9)))
    assert victims and victims == expected
    assert any(diverted) and not all(diverted)
    ftl.check_invariants()


def test_victim_index_survives_reuse_cycles():
    """Blocks that are reclaimed and re-closed must not resurrect stale
    index entries (closed_seq disambiguates deque entries; the heap's
    exact-match test discards stale valid counts)."""
    ssd = build_ssd(GreedyPolicy())
    rng = substream(3, "cycles")
    npages = ssd.config.logical_pages
    ssd.write_range(0, npages)
    for _ in range(60):
        # Whole-range rewrites force every block through multiple
        # close → reclaim → reuse cycles.
        ssd.write_range(0, npages // 2)
        ssd.write_pages(np.unique(rng.integers(0, npages, size=33)))
        ssd.ftl.check_invariants()
    assert ssd.ftl.total_erases > 100


def test_index_structures_stay_bounded():
    """Lazy heap/deque growth is compacted against the device size."""
    ssd = build_ssd(GreedyPolicy())
    rng = substream(5, "bounded")
    npages = ssd.config.logical_pages
    ssd.write_range(0, npages)
    for _ in range(3000):
        ssd.write_pages(rng.integers(0, npages, size=1))
    index = ssd.ftl._victim_index
    bound = 2 * index._compact_at  # pushes between compaction checks
    assert len(index.heap) <= bound
    assert len(index.fifo) <= bound
    assert len(index.pending) <= bound
    ssd.ftl.check_invariants()


def test_victim_index_check_catches_drift():
    ssd = build_ssd(GreedyPolicy())
    npages = ssd.config.logical_pages
    ssd.write_range(0, npages)
    index = ssd.ftl._victim_index
    assert isinstance(index, VictimIndex)
    ssd.ftl.check_invariants()
    # Sabotage: drop every live heap entry for one closed block.
    closed = np.where(ssd.ftl._state == 2)[0]
    assert closed.size
    victim = int(closed[0])
    index.heap = [entry for entry in index.heap if entry[1] != victim]
    with pytest.raises(AssertionError):
        ssd.ftl.check_invariants()
