"""ChannelTimeline's running aggregates vs recompute-from-scratch.

The timeline answers ``backlog`` / ``drain_wait`` / ``backlog_exceeds``
through running maxima (DESIGN.md §8).  Every fast path must be
*exactly* the value a from-scratch recomputation over the horizon
vectors yields.  The horizons have one writer besides
``reset`` — the SSD's own request paths — so these tests drive
randomized request / query interleavings through ``SSD.write_runs`` /
``read_runs`` / ``settle`` under channel timing and
compare against the naive oracle with ``==`` (no tolerance) after every
request.
"""

from __future__ import annotations

import pytest

from repro.core.clock import VirtualClock
from repro.flash.ssd import SSD, ChannelTimeline
from repro.rng import substream
from tests.conftest import make_tiny_config, one_page_runs


def timed_ssd(nchannels: int):
    """A tiny device in channel-timing mode, its timeline and its clock."""
    clock = VirtualClock()
    ssd = SSD(make_tiny_config(channels=nchannels), clock)
    ssd.enable_channel_timing()
    assert type(ssd._timeline) is ChannelTimeline
    return ssd, ssd._timeline, clock


def oracle_backlog(timeline: ChannelTimeline, now: float) -> float:
    total = 0.0
    for b in timeline.write_busy:
        d = b - now
        if d > 0.0:
            total += d
    return total / len(timeline.write_busy)


def oracle_drain_wait(timeline: ChannelTimeline, now: float) -> float:
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
            ssd.write_runs([int(rng.integers(0, npages - count))], [count], background=bool(rng.integers(0, 2)))
        elif roll < 0.40:
            lpns = rng.choice(npages, size=int(rng.integers(1, 40)),
                              replace=False)
            ssd.write_runs(*one_page_runs(lpns), background=bool(rng.integers(0, 2)))
        elif roll < 0.70:
            count = int(rng.integers(1, 40))
            ssd.read_runs([int(rng.integers(0, npages - count))], [count])
        elif roll < 0.95:
            clock.advance(float(rng.random()) * 2e-3)  # drain a little
        else:
            ssd.settle()
        now = clock.now
        # Aggregates answer exactly like the naive scan, at every step.
        assert timeline.backlog(now) == oracle_backlog(timeline, now)
        assert ssd.backlog_seconds() == oracle_backlog(timeline, now)
        assert timeline.drain_wait(now) == oracle_drain_wait(timeline, now)
        assert timeline.write_max == max(timeline.write_busy)
        assert timeline.busy_max == max(timeline.busy)
        assert ssd.write_horizon == max(timeline.write_busy)
        threshold = float(rng.random()) * 2e-3
        assert timeline.backlog_exceeds(now, threshold) == \
            (oracle_backlog(timeline, now) > threshold)
    # The interleaving reached every horizon writer, GC erases included.
    assert ssd.smart.blocks_erased > 0 and ssd.smart.host_read_requests > 0


def test_drained_timeline_short_circuits_to_exact_zero():
    ssd, timeline, clock = timed_ssd(8)
    ssd.write_runs([2], [10], background=True)
    ssd.read_runs([0], [4])
    clock.advance(10.0)
    assert timeline.backlog(clock.now) == 0.0
    assert timeline.drain_wait(clock.now) == 0.0
    assert not timeline.backlog_exceeds(clock.now, 0.0)
    assert ssd.backlog_seconds() == 0.0 and ssd.drain() == 0.0
