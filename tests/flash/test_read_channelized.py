"""The channelized-read fold vs a page-by-page FIFO model (DESIGN.md §13.3).

``SSD._read_channelized`` stripes a read over the per-channel FIFO
queues lane by lane.  The reference here walks the read *page by page*
— page ``start + i`` queues one page-read behind channel
``(start + i) % channels`` — and shares no code with the device: it
predicts the returned latency, every per-channel busy horizon and
``busy_max`` from the pre-read timeline, at every striping shape
(npages below, equal to, and far above the channel count) and across a
degrade window.  Comparisons are ``==`` with no tolerance.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.clock import VirtualClock
from repro.faults.plan import FaultPlan
from repro.flash.ssd import SSD
from repro.rng import substream
from tests.conftest import make_tiny_config


def make_channel_ssd(**config_overrides) -> SSD:
    ssd = SSD(make_tiny_config(**config_overrides), VirtualClock())
    ssd.enable_channel_timing()
    return ssd


def timeline_state(ssd: SSD) -> tuple:
    channels = ssd._channels
    return (list(channels.busy), list(channels.write_busy),
            channels.busy_max, channels.write_max)


def model_read(ssd: SSD, start: int, npages: int, degrade=None):
    """Predicted (latency, busy, busy_max) of one read, page by page.

    *degrade* is ``(channel, start, end, factor)`` or None.
    """
    cfg = ssd.config
    now = ssd.clock.now
    busy = list(ssd._channels.busy)
    pages = Counter((start + i) % cfg.channels for i in range(npages))
    for channel, count in pages.items():
        seconds = count * cfg.page_read_time
        if degrade and channel == degrade[0] and degrade[1] <= now < degrade[2]:
            seconds = seconds * degrade[3]
        busy[channel] = max(busy[channel], now) + seconds
    completion = max([now] + [busy[c] for c in pages])
    latency = (cfg.read_latency + npages * cfg.page_size / cfg.bus_bytes_per_s
               + (completion - now))
    return latency, busy, max(ssd._channels.busy_max, completion)


def assert_reads_match_model(ssd: SSD, reads, degrade=None) -> None:
    for start, npages in reads:
        before = timeline_state(ssd)
        latency, busy, busy_max = model_read(ssd, start, npages, degrade)
        assert ssd.read_range(start, npages) == latency, (start, npages)
        # Reads move only the FIFO occupancy, never the write horizons.
        assert timeline_state(ssd) == (busy, before[1], busy_max, before[3]), \
            (start, npages)


class TestReadChannelized:
    @pytest.mark.parametrize("npages", [1, 3, 7, 8, 9, 16, 61, 256])
    def test_striping_shapes(self, npages):
        """Below, at, and above the channel count (8), aligned or not."""
        ssd = make_channel_ssd()
        assert_reads_match_model(ssd, [(5, npages), (0, npages),
                                       (npages, npages)])

    def test_zero_and_negative_page_reads_are_free(self):
        ssd = make_channel_ssd()
        before = timeline_state(ssd)
        assert ssd.read_range(0, 0) == 0.0
        assert ssd.read_range(0, -3) == 0.0
        assert timeline_state(ssd) == before

    def test_single_channel_device(self):
        ssd = make_channel_ssd(channels=1)
        assert_reads_match_model(ssd, [(0, 1), (3, 5), (0, 40)])

    def test_randomized_interleaving(self):
        """Reads and writes interleaved: the fold sees busy channels."""
        ssd = make_channel_ssd()
        rng = substream(7, "read-fold")
        for _ in range(300):
            start = int(rng.integers(0, 512))
            npages = int(rng.integers(1, 48))
            if rng.random() < 0.3:
                ssd.write_range(start, npages)
            else:
                assert_reads_match_model(ssd, [(start, npages)])
            if rng.random() < 0.2:
                ssd.clock.advance(float(rng.random()) * 1e-3)

    def test_busy_max_monotone_and_tracks_the_horizons(self):
        ssd = make_channel_ssd()
        rng = substream(11, "busy-max")
        last = ssd._channels.busy_max
        for _ in range(200):
            ssd.read_range(int(rng.integers(0, 256)), int(rng.integers(1, 32)))
            channels = ssd._channels
            assert channels.busy_max >= last
            assert channels.busy_max == max(channels.busy)
            last = channels.busy_max
            if rng.random() < 0.3:
                ssd.clock.advance(float(rng.random()) * 1e-3)


class TestDegradeWindow:
    def make(self, start: float, seconds: float,
             factor: float = 8.0) -> tuple[SSD, tuple]:
        ssd = make_channel_ssd()
        ssd.faults = FaultPlan(
            {"degrade": {"channel": 2, "start": start,
                         "seconds": seconds, "factor": factor}},
            substream(3, "degrade"),
        )
        return ssd, (2, start, start + seconds, factor)

    def test_inside_window_scales_the_degraded_channel(self):
        ssd, degrade = self.make(start=0.0, seconds=1.0)
        assert_reads_match_model(ssd, [(0, 16), (2, 3), (7, 9)], degrade)
        # The window really fired: the degraded channel's horizon leads.
        busy = ssd._channels.busy
        assert busy[2] == max(busy)

    def test_boundary_now_equals_start_is_inside(self):
        """The window is half-open [start, end): now == start scales."""
        ssd, degrade = self.make(start=0.5, seconds=1.0)
        ssd.clock.advance(0.5)
        assert_reads_match_model(ssd, [(0, 16), (1, 7)], degrade)
        busy = ssd._channels.busy
        assert busy[2] == max(busy)

    def test_boundary_now_equals_end_is_outside(self):
        ssd, degrade = self.make(start=0.0, seconds=0.25)
        ssd.clock.advance(0.25)
        assert_reads_match_model(ssd, [(0, 16), (1, 7)], degrade)
        # No scaling: every lane of an aligned 16-page read adds the
        # same service time, so no channel's horizon stands out.
        busy = ssd._channels.busy
        assert busy[2] == busy[3]

    def test_before_and_after_window(self):
        ssd, degrade = self.make(start=0.5, seconds=0.1)
        assert_reads_match_model(ssd, [(0, 16)], degrade)  # before
        ssd.clock.advance(1.0)
        assert_reads_match_model(ssd, [(0, 16)], degrade)  # after
