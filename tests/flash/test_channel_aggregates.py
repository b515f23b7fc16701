"""ChannelTimeline's running aggregates vs recompute-from-scratch.

The timeline answers ``backlog`` / ``max_backlog`` / ``backlog_exceeds``
through running maxima (DESIGN.md §8).  Every fast path must be
*exactly* the value a from-scratch recomputation over the horizon
vectors yields.  The horizons have one writer besides
``reset`` — the SSD's own request paths — so these tests drive
randomized request / query interleavings through ``SSD.write_range`` /
``write_pages`` / ``read_range`` / ``settle`` under channel timing and
compare against the naive oracle with ``==`` (no tolerance) after every
request.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clock import VirtualClock
from repro.flash.ssd import SSD, ChannelTimeline, mean_write_backlog
from repro.rng import substream
from tests.conftest import make_tiny_config


def timed_ssd(nchannels: int):
    """A tiny device in channel-timing mode, its timeline and its clock."""
    clock = VirtualClock()
    ssd = SSD(make_tiny_config(channels=nchannels), clock)
    ssd.enable_channel_timing()
    return ssd, ssd._channels, clock


def oracle_backlog(timeline: ChannelTimeline, now: float) -> float:
    total = 0.0
    for b in timeline.write_busy:
        d = b - now
        if d > 0.0:
            total += d
    return total / len(timeline.write_busy)


def oracle_max_backlog(timeline: ChannelTimeline, now: float) -> float:
    return max(0.0, max(timeline.busy) - now)


@pytest.mark.parametrize("nchannels", [1, 3, 8, 16])
def test_randomized_mutations_match_oracle(nchannels):
    rng = substream(13, f"channels-{nchannels}")
    ssd, timeline, clock = timed_ssd(nchannels)
    npages = ssd.npages
    for step in range(800):
        roll = rng.random()
        if roll < 0.20:
            count = int(rng.integers(1, 40))
            ssd.write_range(int(rng.integers(0, npages - count)), count,
                            background=bool(rng.integers(0, 2)))
        elif roll < 0.40:
            lpns = rng.choice(npages, size=int(rng.integers(1, 40)),
                              replace=False)
            ssd.write_pages(lpns, background=bool(rng.integers(0, 2)))
        elif roll < 0.70:
            count = int(rng.integers(1, 40))
            ssd.read_range(int(rng.integers(0, npages - count)), count)
        elif roll < 0.95:
            clock.advance(float(rng.random()) * 2e-3)  # drain a little
        else:
            ssd.settle()
        now = clock.now
        # Aggregates answer exactly like the naive scan, at every step.
        assert timeline.backlog(now) == oracle_backlog(timeline, now)
        assert timeline.max_backlog(now) == oracle_max_backlog(timeline, now)
        assert timeline.write_max == max(timeline.write_busy)
        assert timeline.busy_max == max(timeline.busy)
        threshold = float(rng.random()) * 2e-3
        assert timeline.backlog_exceeds(now, threshold) == \
            (oracle_backlog(timeline, now) > threshold)
    # The interleaving reached every horizon writer, GC erases included.
    assert ssd.smart.blocks_erased > 0 and ssd.smart.host_read_requests > 0


def test_memoized_backlog_is_invalidated_by_mutation():
    """No answer is remembered (the memo this guarded is gone: 0 hits
    in 115 726 calls on ``btree-pool16``): a repeat at one instant is
    recomputed, so a write in between shows."""
    ssd, timeline, clock = timed_ssd(4)
    ssd.write_range(0, 1, background=True)
    clock.advance(50e-6)  # a quarter of the one queued page program
    now = clock.now
    first = timeline.backlog(now)
    assert first > 0.0
    assert timeline.backlog(now) == first
    ssd.write_range(8, 2, background=True)  # same instant, more work
    assert timeline.backlog(now) == oracle_backlog(timeline, now) > first
    ssd.settle()
    assert timeline.backlog(now) == 0.0


def test_drained_timeline_short_circuits_to_exact_zero():
    ssd, timeline, clock = timed_ssd(8)
    ssd.write_range(2, 10, background=True)
    ssd.read_range(0, 4)
    clock.advance(10.0)
    assert timeline.backlog(clock.now) == 0.0
    assert timeline.max_backlog(clock.now) == 0.0
    assert not timeline.backlog_exceeds(clock.now, 0.0)
    assert ssd.backlog_seconds() == 0.0 and ssd.drain() == 0.0


def test_mean_write_backlog_is_the_shared_definition():
    """The module helper *is* ChannelTimeline.backlog's slow path — the
    engines' stall loops import it, so the two cannot drift."""
    ssd, timeline, _clock = timed_ssd(5)
    rng = substream(17, "shared-helper")
    for _ in range(50):
        ssd.write_range(int(rng.integers(0, ssd.npages - 8)),
                        int(rng.integers(1, 8)), background=True)
    for now in np.linspace(0.0, 0.03, 23).tolist():
        assert ssd.backlog_seconds(at=now) == timeline.backlog(now) == \
            mean_write_backlog(timeline.write_busy, now)
