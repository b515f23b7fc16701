"""The batched read chain vs the per-request one (DESIGN.md §13.1).

``BlockDevice.read_ranges`` → ``SSD.read_ranges`` take a scan's reads
down the device stack in one call.  A twin stack takes the same ranges
through ``read_range`` one request at a time; everything observable must come out equal — the
latency list (``==``, no tolerance), the SMART counters, the FTL's read
count, the device's ``bytes_read``, ``BlkTrace`` histograms and the
request stream an observer sees — whichever way the SSD serves the batch: memoised
scalar timing under a live write backlog, or its per-request fallback
under channel timing, the tracer, or a fault plan.
"""

from __future__ import annotations

import pytest

from repro.block.blktrace import BlkTrace
from repro.block.device import BlockDevice
from repro.core.clock import VirtualClock
from repro.errors import OutOfRangeError
from repro.faults.plan import FaultPlan
from repro.flash.ssd import SSD
from repro.obs.tracer import Tracer, attach_tracer
from repro.rng import substream
from tests.conftest import make_tiny_config

#: Repeated lengths (the memo's hits), a zero-length range in the
#: middle, single pages, and reads longer than the channel count.
RANGES = [(0, 1), (40, 3), (7, 1), (100, 0), (300, 17), (41, 3), (0, 64),
          (511, 1), (12, 17), (5, 0), (200, 8)]


class RequestLog:
    """An observer keeping the read requests it is shown, in order."""

    def __init__(self):
        self.reads = []

    def on_write(self, t, start, npages, lpns):
        pass

    def on_read(self, t, start, npages):
        self.reads.append((t, start, npages))


class Stack:
    """SSD + block device + observers."""

    def __init__(self, mode: str, reserved_fraction: float = 0.0):
        self.clock = VirtualClock()
        self.ssd = SSD(make_tiny_config(), self.clock)
        self.device = BlockDevice(self.ssd, reserved_fraction)
        self.observers = (BlkTrace(self.ssd.npages), RequestLog())
        for observer in self.observers:
            self.device.attach(observer)
        self.tracer = None
        if "channels" in mode:
            self.ssd.enable_channel_timing()
        if "backlog" in mode:
            # Queue more program time than the clock then covers, so
            # reads see a live write horizon.
            self.ssd.write_range(0, 512, background=True)
            self.clock.advance(1e-3)
            assert 0 < self.ssd.backlog_seconds() < \
                self.ssd.config.read_contention_window
        if "tracer" in mode:
            self.tracer = Tracer()
            attach_tracer(self.tracer, clock=self.clock, ssd=self.ssd)
            self.tracer.enable()
        if "faults" in mode:
            self.ssd.faults = FaultPlan(
                {"read": 0.4, "latency": 0.3, "read_penalty_ms": 0.7},
                substream(5, "faults"))

    def state(self) -> tuple:
        blktrace, log = self.observers
        channels = self.ssd._channels
        return (
            self.ssd.smart.snapshot(), self.ssd.ftl.total_read_pages,
            self.device.bytes_read,
            blktrace.read_histogram.tolist(), blktrace.total_read_requests,
            log.reads,
            None if channels is None else (list(channels.busy),
                                           channels.busy_max),
            None if self.tracer is None else (
                list(self.tracer.sink.events()), self.tracer.emitted),
            # The next fault draw: both twins consumed the same stream.
            self.ssd.faults.enabled and self.ssd.faults.rng.random(),
        )


MODES = ["scalar", "scalar+backlog", "channels", "channels+backlog",
         "scalar+backlog+tracer", "channels+tracer", "scalar+backlog+faults",
         "channels+faults+tracer"]


def assert_batch_matches_loop(batched: Stack, looped: Stack, ranges) -> list:
    starts = [start for start, _ in ranges]
    lens = [npages for _, npages in ranges]
    latencies = batched.device.read_ranges(starts, lens)
    assert latencies == [looped.device.read_range(start, npages)
                         for start, npages in ranges]
    assert batched.state() == looped.state()
    return latencies


class TestReadRanges:
    @pytest.mark.parametrize("mode", MODES)
    def test_equals_the_read_range_loop(self, mode):
        batched, looped = Stack(mode), Stack(mode)
        latencies = assert_batch_matches_loop(batched, looped, RANGES)
        assert all((latency > 0) == (npages > 0)
                   for latency, (_, npages) in zip(latencies, RANGES))
        # A second submission, later: a different backlog, same contract.
        for stack in (batched, looped):
            stack.clock.advance(2e-3)
        assert_batch_matches_loop(batched, looped, RANGES[::-1])

    def test_contention_factor_is_live_in_the_scalar_batch(self):
        """The memoised latencies carry the write-backlog penalty."""
        idle = Stack("scalar").device.read_ranges([0, 9], [3, 3])
        busy = Stack("scalar+backlog").device.read_ranges([0, 9], [3, 3])
        assert busy[0] > idle[0] and busy == [busy[0]] * 2

    @pytest.mark.parametrize("mode", ["scalar", "channels", "scalar+tracer"])
    def test_zero_length_ranges_touch_nothing(self, mode):
        stack = Stack(mode)
        before = stack.state()
        assert stack.device.read_ranges([0, 50, 10**9], [0, 0, 0]) == [0.0] * 3
        assert stack.device.read_ranges([], []) == []
        assert stack.state() == before

    @pytest.mark.parametrize("mode", ["scalar", "channels"])
    def test_out_of_range_raises_like_the_loop(self, mode):
        batched, looped = Stack(mode), Stack(mode)
        npages = batched.ssd.npages
        ranges = [(0, 4), (npages - 2, 3), (8, 1)]
        with pytest.raises(OutOfRangeError):
            batched.device.read_ranges(*zip(*ranges))
        with pytest.raises(OutOfRangeError):
            for start, length in ranges:
                looped.device.read_range(start, length)
        # The request before the bad one was served and counted, the
        # one after it never issued — on both.
        assert batched.ssd.smart == looped.ssd.smart
        assert batched.ssd.smart.host_read_requests == 1
        assert batched.ssd.ftl.total_read_pages == 4
        assert batched.device.bytes_read == looped.device.bytes_read \
            == 4 * batched.device.page_size

    @pytest.mark.parametrize("mode", ["scalar+backlog", "channels"])
    def test_reserved_tail_raises_like_the_loop(self, mode):
        batched, looped = Stack(mode, 0.5), Stack(mode, 0.5)
        exposed = batched.device.npages
        assert exposed == batched.ssd.npages // 2
        assert_batch_matches_loop(
            batched, looped,
            [(0, 2), (exposed - 1, 1), (100, 0), (exposed, 0), (30, 9)])
        assert [start for _t, start, _n in batched.observers[1].reads] == \
            [0, exposed - 1, 30]
        # The drive would serve pages past ``exposed``; the block layer
        # does not, and what it refuses reaches no counter or observer.
        ranges = [(0, 1), (exposed - 6, 7), (8, 1)]
        with pytest.raises(OutOfRangeError):
            batched.device.read_ranges(*zip(*ranges))
        with pytest.raises(OutOfRangeError):
            for start, length in ranges:
                looped.device.read_range(start, length)
        assert batched.state() == looped.state()
        assert batched.ssd.smart.host_read_requests == 4
