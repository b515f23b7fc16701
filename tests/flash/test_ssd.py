"""Tests for the SSD device model: timing, SMART, cache behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clock import VirtualClock
from repro.errors import OutOfRangeError
from repro.flash.profiles import get_profile
from repro.flash.ssd import SSD, ChannelTimeline, ScalarTimeline
from repro.units import MIB
from tests.conftest import (counters_since, make_tiny_config, mapped,
                            one_page_runs)


def busiest_channel(ssd: SSD) -> float:
    """Seconds of queued work (reads included) on the most-loaded
    channel: the drain wait of a channel timeline."""
    return ssd._timeline.drain_wait(ssd.clock.now)


class TestSmartAccounting:
    def test_host_write_counted(self, tiny_ssd):
        tiny_ssd.write_runs([0], [4])
        assert tiny_ssd.smart.host_bytes_written == 4 * 4096
        assert tiny_ssd.smart.host_write_requests == 1
        assert tiny_ssd.smart.nand_bytes_written >= 4 * 4096

    def test_read_counted(self, tiny_ssd):
        tiny_ssd.write_runs([0], [4])
        tiny_ssd.read_runs([0], [4])
        assert tiny_ssd.smart.host_bytes_read == 4 * 4096
        assert tiny_ssd.smart.host_read_requests == 1

    def test_wad_starts_at_one(self, tiny_ssd):
        assert tiny_ssd.device_write_amplification() == 1.0
        tiny_ssd.write_runs([0], [10])
        assert tiny_ssd.device_write_amplification() == 1.0

    def test_gc_shows_up_in_smart(self, tiny_ssd):
        n = tiny_ssd.npages
        rng = np.random.default_rng(0)
        tiny_ssd.write_runs([0], [n])
        for _ in range(10):
            tiny_ssd.write_runs(*one_page_runs(rng.permutation(n)[: n // 2].astype(np.int64)))
        assert tiny_ssd.smart.gc_bytes_relocated > 0
        assert tiny_ssd.smart.blocks_erased > 0
        assert tiny_ssd.device_write_amplification() > 1.0

    def test_trim_counted(self, tiny_ssd):
        tiny_ssd.write_runs([0], [10])
        tiny_ssd.trim_all()
        assert tiny_ssd.smart.trim_commands == 1
        assert not mapped(tiny_ssd).any()

    def test_gc_attributable_counters(self, tiny_ssd):
        assert tiny_ssd.smart.gc_reclaims == 0
        assert tiny_ssd.smart.gc_pages_moved == 0
        assert tiny_ssd.smart.gc_flash_reads == 0
        n = tiny_ssd.npages
        rng = np.random.default_rng(0)
        tiny_ssd.write_runs([0], [n])
        for _ in range(10):
            tiny_ssd.write_runs(*one_page_runs(rng.permutation(n)[: n // 2].astype(np.int64)))
        smart = tiny_ssd.smart
        assert smart.gc_reclaims > 0
        # Reclaims are erases attributed to GC, never more than total.
        assert smart.gc_reclaims <= smart.blocks_erased
        # Every relocated page is one flash read plus one program.
        assert smart.gc_pages_moved == smart.gc_flash_reads
        assert smart.gc_pages_moved * tiny_ssd.page_size == smart.gc_bytes_relocated

    def test_gc_counters_survive_serialization(self, tiny_ssd):
        as_dict = tiny_ssd.smart.as_dict()
        for key in ("gc_reclaims", "gc_pages_moved", "gc_flash_reads"):
            assert as_dict[key] == 0
        before = tiny_ssd.smart.as_dict()
        n = tiny_ssd.npages
        rng = np.random.default_rng(1)
        tiny_ssd.write_runs([0], [n])
        for _ in range(10):
            tiny_ssd.write_runs(*one_page_runs(rng.permutation(n)[: n // 2].astype(np.int64)))
        delta = counters_since(tiny_ssd.smart, before)
        assert delta.gc_reclaims == tiny_ssd.smart.gc_reclaims > 0


class TestTiming:
    def test_small_write_sees_cache_latency(self, tiny_ssd):
        latency = tiny_ssd.write_runs([0], [1])
        # One page: transfer + write latency floor, well under 1 ms.
        assert 0 < latency < 1e-3

    def test_burst_write_stalls_past_cache(self, tiny_config, clock):
        ssd = SSD(tiny_config, clock)
        small = ssd.write_runs([0], [1])
        big = ssd.write_runs([0], [800])  # ~3 MiB >> 64 KiB cache
        assert big > small * 50

    def test_background_write_returns_zero_latency(self, tiny_ssd):
        assert tiny_ssd.write_runs([0], [200], background=True) == 0.0
        assert tiny_ssd.backlog_seconds() > 0

    def test_drain_advances_clock(self, tiny_ssd, clock):
        tiny_ssd.write_runs([0], [400], background=True)
        backlog = tiny_ssd.backlog_seconds()
        assert backlog > 0
        waited = tiny_ssd.drain()
        assert waited == pytest.approx(backlog)
        assert tiny_ssd.backlog_seconds() == 0.0

    def test_settle_discards_backlog(self, tiny_ssd, clock):
        tiny_ssd.write_runs([0], [400], background=True)
        tiny_ssd.settle()
        assert tiny_ssd.backlog_seconds() == 0.0
        assert clock.now == 0.0

    def test_reads_slower_under_write_backlog(self, tiny_ssd):
        idle_read = tiny_ssd.read_runs([0], [1])[0]
        tiny_ssd.write_runs([0], [tiny_ssd.npages], background=True)
        busy_read = tiny_ssd.read_runs([0], [1])[0]
        assert busy_read > idle_read

    def test_backlog_decays_as_time_passes(self, tiny_ssd, clock):
        tiny_ssd.write_runs([0], [400], background=True)
        before = tiny_ssd.backlog_seconds()
        clock.advance(before / 2)
        after = tiny_ssd.backlog_seconds()
        assert after == pytest.approx(before / 2)


class TestByteAddressable:
    def make_optane(self, clock):
        config = make_tiny_config(
            name="optane", byte_addressable=True, hw_overprovision=0.0
        )
        return SSD(config, clock)

    def test_no_gc_ever(self, clock):
        ssd = self.make_optane(clock)
        n = ssd.npages
        rng = np.random.default_rng(1)
        ssd.write_runs([0], [n])
        for _ in range(10):
            ssd.write_runs(*one_page_runs(rng.permutation(n)[: n // 2].astype(np.int64)))
        assert ssd.device_write_amplification() == 1.0
        assert ssd.smart.blocks_erased == 0


class TestBounds:
    def test_write_out_of_range(self, tiny_ssd):
        with pytest.raises(OutOfRangeError):
            tiny_ssd.write_runs([tiny_ssd.npages - 1], [2])

    def test_read_out_of_range(self, tiny_ssd):
        with pytest.raises(OutOfRangeError):
            tiny_ssd.read_runs([-1], [2])

    @pytest.mark.parametrize("profile", ["ssd1", "ssd3"])
    def test_write_pages_out_of_range(self, clock, profile):
        """With an FTL (ssd1) or without one (ssd3, byte-addressable),
        a page list past either end is refused with nothing counted."""
        ssd = SSD(get_profile(profile, 8 * MIB), clock)
        for lpn in (-1, ssd.npages):
            with pytest.raises(OutOfRangeError):
                ssd.write_runs(*one_page_runs(np.array([0, lpn], dtype=np.int64)))
        assert ssd.smart.host_bytes_written == 0
        if ssd.ftl is not None:
            assert not mapped(ssd).any()

    def test_zero_length_ops_free(self, tiny_ssd):
        assert tiny_ssd.write_runs([0], [0]) == 0.0
        assert tiny_ssd.read_runs([0], [0])[0] == 0.0
        tiny_ssd.trim_range(0, 0)
        assert tiny_ssd.smart.host_write_requests == 0


class TestChannelTiming:
    """The per-channel service model (DESIGN.md §4.2)."""

    def make_channelized(self, clock, **overrides):
        ssd = SSD(make_tiny_config(**overrides), clock)
        ssd.write_runs([0], [ssd.npages // 2])  # map some pages to read back
        ssd.settle()
        ssd.enable_channel_timing()
        return ssd

    def test_enable_is_idempotent(self, tiny_ssd):
        tiny_ssd.enable_channel_timing()
        timeline = tiny_ssd._timeline
        tiny_ssd.enable_channel_timing()
        assert tiny_ssd._timeline is timeline
        assert isinstance(timeline, ChannelTimeline)

    def test_enable_carries_over_scalar_backlog(self, tiny_ssd):
        tiny_ssd.write_runs([0], [512], background=True)
        before = tiny_ssd.backlog_seconds()
        assert before > 0
        tiny_ssd.enable_channel_timing()
        assert tiny_ssd.backlog_seconds() == pytest.approx(before)

    def test_reads_on_distinct_channels_overlap(self, clock):
        ssd = self.make_channelized(clock)  # 8 channels
        first = ssd.read_runs([0], [1])[0]   # channel 0
        second = ssd.read_runs([1], [1])[0]  # channel 1: no queueing
        assert second == pytest.approx(first)

    def test_reads_on_same_channel_queue(self, clock):
        ssd = self.make_channelized(clock)
        first = ssd.read_runs([0], [1])[0]
        queued = ssd.read_runs([8], [1])[0]  # 8 % 8 == channel 0 again
        assert queued > first
        assert queued - first == pytest.approx(ssd.config.page_read_time)

    def test_wide_read_completes_with_slowest_channel(self, clock):
        ssd = self.make_channelized(clock)
        nchannels = ssd.config.channels
        narrow = ssd.read_runs([0], [nchannels])[0]      # one page per channel
        ssd.settle()
        wide = ssd.read_runs([0], [4 * nchannels])[0]    # four pages per channel
        extra = wide - narrow
        assert extra > 3 * ssd.config.page_read_time  # queueing, not averaging

    def test_reads_queue_behind_write_backlog(self, clock):
        ssd = self.make_channelized(clock)
        idle = ssd.read_runs([0], [1])[0]
        ssd.settle()
        ssd.write_runs([0], [512], background=True)  # queue program work
        contended = ssd.read_runs([0], [1])[0]
        assert contended > idle  # emergent contention, no scalar penalty

    def test_write_backlog_matches_scalar_model(self, clock):
        scalar = SSD(make_tiny_config(), clock)
        channelized = SSD(make_tiny_config(), clock)
        channelized.enable_channel_timing()
        scalar.write_runs([0], [256], background=True)
        channelized.write_runs([0], [256], background=True)
        assert channelized.backlog_seconds() == pytest.approx(
            scalar.backlog_seconds()
        )

    def test_drain_waits_for_slowest_channel(self, clock):
        ssd = self.make_channelized(clock)
        ssd.write_runs([0], [3], background=True)  # uneven striping
        assert busiest_channel(ssd) > ssd.backlog_seconds() > 0
        ssd.drain()
        assert ssd.backlog_seconds() == 0.0
        assert busiest_channel(ssd) == 0.0

    def test_settle_clears_channels(self, clock):
        ssd = self.make_channelized(clock)
        ssd.write_runs([0], [64], background=True)
        ssd.settle()
        assert ssd._timeline.busy == [clock.now] * ssd.config.channels
        assert busiest_channel(ssd) == 0.0

    def test_scalar_mode_reports_no_channel_backlogs(self, tiny_ssd):
        """Until switched, the device is one horizon: its drain wait is
        its write backlog, with nothing per channel beside it."""
        tiny_ssd.write_runs([0], [3], background=True)
        assert type(tiny_ssd._timeline) is ScalarTimeline
        assert busiest_channel(tiny_ssd) == tiny_ssd.backlog_seconds() > 0


class TestReadBacklogSeparation:
    """Reads contend for channels but never fill the write cache.

    In channel mode ``backlog_seconds()`` feeds the SLC fold trigger,
    host write completion, and engine stall heuristics; read service
    time must therefore stay out of it (a read-heavy workload used to
    spuriously "overwhelm the write cache")."""

    def make_channelized(self, clock, **overrides):
        ssd = SSD(make_tiny_config(**overrides), clock)
        ssd.write_runs([0], [ssd.npages // 2])
        ssd.settle()
        ssd.enable_channel_timing()
        return ssd

    def queue_reads(self, ssd, rounds: int) -> None:
        for _ in range(rounds):
            ssd.read_runs([0], [ssd.config.channels * 4])

    def test_reads_do_not_fill_write_backlog(self, clock):
        ssd = self.make_channelized(clock)
        self.queue_reads(ssd, rounds=50)
        assert busiest_channel(ssd) > 0  # channels are busy...
        assert ssd.backlog_seconds() == 0.0     # ...the write cache is not

    def test_read_backlog_does_not_stall_host_writes(self, clock):
        ssd = self.make_channelized(clock)
        idle_latency = ssd.write_runs([0], [1])
        ssd.settle()
        # Pile on far more read service time than the cache drain
        # window; a host write must still complete at the cache floor.
        self.queue_reads(ssd, rounds=200)
        assert busiest_channel(ssd) > ssd.config.cache_drain_window
        contended_latency = ssd.write_runs([0], [1])
        assert contended_latency == pytest.approx(idle_latency)

    def test_reads_never_trigger_fold_penalty(self, clock):
        # A QLC-like device: folding enabled, tiny cache window.
        ssd = self.make_channelized(clock, fold_penalty=4.0,
                                    write_cache_bytes=16 * 1024)
        self.queue_reads(ssd, rounds=400)
        assert busiest_channel(ssd) > 1.25 * ssd.config.cache_drain_window
        ssd.write_runs([0], [8])
        assert ssd.smart.fold_events == 0

    def test_write_backlog_still_triggers_fold_penalty(self, clock):
        ssd = self.make_channelized(clock, fold_penalty=4.0,
                                    write_cache_bytes=16 * 1024)
        ssd.write_runs([0], [512], background=True)  # bursty program work
        assert ssd.backlog_seconds() > 1.25 * ssd.config.cache_drain_window
        ssd.write_runs([0], [8])
        assert ssd.smart.fold_events > 0

    def test_writes_still_queue_behind_reads_on_a_channel(self, clock):
        ssd = self.make_channelized(clock)
        idle_read = ssd.read_runs([0], [1])[0]
        ssd.settle()
        self.queue_reads(ssd, rounds=50)
        # Channel occupancy (busy horizons) still includes the reads:
        # a later read on the same channel waits its turn.
        contended_read = ssd.read_runs([0], [1])[0]
        assert contended_read > idle_read

    def test_drain_covers_read_work(self, clock):
        ssd = self.make_channelized(clock)
        self.queue_reads(ssd, rounds=20)
        ssd.drain()
        assert busiest_channel(ssd) == 0.0
