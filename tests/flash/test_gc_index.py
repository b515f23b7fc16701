"""Indexed GC victim selection vs the scan-based oracle (DESIGN.md §8).

The FTL keeps a :class:`~repro.flash.gc.VictimIndex` (lazy greedy heap
+ FIFO deque) in sync with every valid-count mutation so victim
selection never scans the block array.  The original ``np.where`` +
``argmin`` policy methods are retained verbatim; subclassing a policy
with ``indexed = False`` makes the FTL fall back to them, which is the
oracle these tests drive: identical GC-heavy workloads through both
paths must produce the *same victims in the same order* — and hence
identical erase counts, mappings, WA-D, and SMART state — for greedy
and FIFO (and windowed-greedy), with and without stream separation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clock import VirtualClock
from repro.flash.config import SSDConfig
from repro.flash.gc import (
    FifoPolicy, GreedyPolicy, VictimIndex, WindowedGreedyPolicy,
)
from repro.flash.ssd import SSD
from repro.rng import substream


def scan_only(policy_cls, **kwargs):
    """An oracle twin of *policy_cls* that forces the scan path."""

    class ScanOnly(policy_cls):
        indexed = False

    return ScanOnly(**kwargs)


def build_ssd(policy, stream_separation: bool) -> SSD:
    # Low over-provisioning + high utilization: the collector runs
    # constantly and every closed block is a plausible victim.
    config = SSDConfig(
        page_size=4096, pages_per_block=32, nblocks=64,
        hw_overprovision=0.20, stream_separation=stream_separation,
    )
    return SSD(config, VirtualClock(), policy)


def record_victims(ssd: SSD) -> list[int]:
    """Capture the victim sequence by wrapping ``_reclaim``."""
    victims: list[int] = []
    ftl = ssd.ftl
    original = ftl._reclaim

    def spy(victim, work):
        victims.append(int(victim))
        return original(victim, work)

    ftl._reclaim = spy
    return victims


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


POLICIES = [
    ("greedy", GreedyPolicy, {}),
    ("fifo", FifoPolicy, {}),
    ("windowed", WindowedGreedyPolicy, {"window": 8}),
]


@pytest.mark.parametrize("stream_separation", [False, True],
                         ids=["mixed", "stream-separated"])
@pytest.mark.parametrize("name,policy_cls,kwargs", POLICIES,
                         ids=[p[0] for p in POLICIES])
def test_indexed_matches_scan_oracle_block_for_block(
        name, policy_cls, kwargs, stream_separation):
    indexed = build_ssd(policy_cls(**kwargs), stream_separation)
    oracle = build_ssd(scan_only(policy_cls, **kwargs), stream_separation)
    assert indexed.ftl._victim_index is not None
    assert oracle.ftl._victim_index is None

    victims_indexed = record_victims(indexed)
    victims_oracle = record_victims(oracle)
    drive_gc_heavy(indexed)
    drive_gc_heavy(oracle)

    # The workload must actually stress the collector.
    assert len(victims_indexed) > 200
    # Victim-for-victim identity — not just aggregate equality.
    assert victims_indexed == victims_oracle
    assert indexed.ftl.total_erases == oracle.ftl.total_erases
    assert indexed.ftl.total_gc_pages == oracle.ftl.total_gc_pages
    assert np.array_equal(indexed.ftl.erase_counts, oracle.ftl.erase_counts)
    assert np.array_equal(indexed.ftl.state_arrays()[0],
                          oracle.ftl.state_arrays()[0])
    assert indexed.device_write_amplification() == \
        oracle.device_write_amplification()
    indexed.ftl.check_invariants()  # includes VictimIndex.check
    oracle.ftl.check_invariants()


def test_fully_valid_fallback_folded_into_index():
    """FIFO's oldest block being fully valid must divert to the greedy
    minimum through the index — same choice as the oracle's rescan."""
    indexed = build_ssd(FifoPolicy(), stream_separation=False)
    oracle = build_ssd(scan_only(FifoPolicy), stream_separation=False)
    victims_indexed = record_victims(indexed)
    victims_oracle = record_victims(oracle)
    for ssd in (indexed, oracle):
        npages = ssd.config.logical_pages
        ssd.write_range(0, npages)  # sequential fill: closed blocks are
        # fully valid, so early FIFO picks *must* take the fallback
        rng = substream(11, "fallback")
        for _ in range(300):
            ssd.write_pages(np.unique(rng.integers(0, npages, size=9)))
    assert victims_indexed and victims_indexed == victims_oracle
    indexed.ftl.check_invariants()


def test_victim_index_survives_reuse_cycles():
    """Blocks that are reclaimed and re-closed must not resurrect stale
    index entries (closed_seq disambiguates deque entries; the heap's
    exact-match test discards stale valid counts)."""
    ssd = build_ssd(GreedyPolicy(), stream_separation=False)
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
    ssd = build_ssd(GreedyPolicy(), stream_separation=False)
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
    ssd = build_ssd(GreedyPolicy(), stream_separation=False)
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
