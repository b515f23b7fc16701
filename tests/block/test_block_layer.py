"""Tests for the block layer: the device, its exposed range and byte
counters, blktrace."""

from __future__ import annotations

import numpy as np
import pytest

from repro.block.blktrace import BlkTrace
from repro.block.device import BlockDevice
from repro.errors import ConfigError, OutOfRangeError, ProgramFaultError
from repro.faults import FaultPlan, RetryPolicy
from repro.rng import substream


@pytest.fixture
def device(tiny_ssd):
    return BlockDevice(tiny_ssd)


class TestBlockDevice:
    def test_forwards_geometry(self, device, tiny_ssd):
        assert device.page_size == tiny_ssd.page_size
        assert device.npages == tiny_ssd.npages
        assert device.capacity_bytes == tiny_ssd.capacity_bytes

    def test_observers_see_writes(self, device):
        seen = []

        class Probe:
            def on_write(self, t, start, npages, lpns):
                seen.append(("w", npages))

        device.write_range(0, 1)  # before attaching: not shown
        device.attach(Probe())
        device.write_range(0, 4)
        device.write_pages(np.array([9, 11], dtype=np.int64))
        device.read_range(0, 2)  # reads are not traced
        assert seen == [("w", 4), ("w", 2)]


class TestByteCounters:
    """``bytes_written`` / ``bytes_read``: what iostat reads deltas of."""

    def test_writes_count_their_pages(self, device, clock):
        assert device.counters() == {"block.bytes_written": 0,
                                     "block.bytes_read": 0}
        device.write_range(0, 10)
        clock.advance(1.0)  # cumulative: no window, no bin
        device.write_range(0, 30)
        # A page list counts pages, not the extents they fall in.
        device.write_pages(np.array([1, 9, 17, 25], dtype=np.int64))
        device.write_pages([3, 5])
        assert device.counters() == {"block.bytes_written": 46 * 4096,
                                     "block.bytes_read": 0}
        assert type(device.bytes_written) is int

    def test_reads_count_their_pages(self, device):
        device.write_range(0, 4)
        device.read_range(0, 4)
        # One submission, one bump; an empty range is no request.
        assert len(device.read_ranges([0, 50, 7], [3, 0, 1])) == 3
        assert device.counters() == {"block.bytes_written": 4 * 4096,
                                     "block.bytes_read": 8 * 4096}
        assert type(device.bytes_read) is int

    def test_empty_and_trim_requests_count_nothing(self, device):
        device.write_range(0, 8)
        before = device.counters()
        device.write_range(4, 0)
        device.write_pages([])
        device.read_range(4, 0)
        device.read_ranges([], [])
        device.trim_range(0, 8)
        assert device.counters() == before

    def test_a_refused_request_counts_nothing(self, tiny_ssd):
        device = BlockDevice(tiny_ssd, 0.25)
        exposed = device.npages
        for refused in (lambda: device.write_range(exposed - 1, 2),
                        lambda: device.write_pages([0, exposed]),
                        lambda: device.read_range(exposed, 1)):
            with pytest.raises(OutOfRangeError):
                refused()
        assert device.counters() == {"block.bytes_written": 0,
                                     "block.bytes_read": 0}
        # A batch is served up to the bad request, like the loop.
        with pytest.raises(OutOfRangeError):
            device.read_ranges([0, exposed - 1, 8], [2, 2, 1])
        assert device.bytes_read == 2 * 4096

    def test_a_retried_write_counts_once_and_a_failed_one_never(self, device):
        smart = device.ssd.smart
        device.ssd.faults = FaultPlan({"program": 0.5}, substream(3, "faults"))
        device.retry = RetryPolicy(8, 1e-4)
        for page in range(20):
            device.write_range(page, 1)
        assert smart.program_failures > 0
        assert device.bytes_written == smart.host_bytes_written == 20 * 4096
        device.ssd.faults = FaultPlan({"program": 1.0}, substream(3, "faults"))
        for device.retry in (RetryPolicy(1, 1e-4), None):  # budget spent, none
            for failing in (lambda: device.write_range(0, 2),
                            lambda: device.write_pages([1, 2])):
                with pytest.raises(ProgramFaultError):
                    failing()
        assert device.bytes_written == smart.host_bytes_written == 20 * 4096


class TestBlkTrace:
    def test_histogram_counts(self, device):
        trace = BlkTrace(device.npages)
        device.attach(trace)
        device.write_range(0, 4)
        device.write_range(2, 4)
        hist = trace.histogram
        assert hist[0] == 1 and hist[2] == 2 and hist[5] == 1
        assert trace.total_write_requests == 2

    def test_page_list_writes(self, device):
        trace = BlkTrace(device.npages)
        device.attach(trace)
        device.write_pages(np.array([1, 1 + 7], dtype=np.int64))
        assert trace.histogram[1] == 1
        assert trace.histogram[8] == 1

    def test_fraction_never_written(self, device):
        trace = BlkTrace(device.npages)
        device.attach(trace)
        half = device.npages // 2
        device.write_range(0, half)
        assert trace.fraction_never_written() == pytest.approx(
            1 - half / device.npages
        )


class TestPartition:
    """The paper's over-provisioning partition (§4.6) is the block
    device's exposed range: ``[0, npages × (1 − reserved_fraction))``."""

    def test_bounds_enforced(self, tiny_ssd):
        device = BlockDevice(tiny_ssd, 0.25)
        exposed = device.npages
        device.write_range(exposed - 2, 2)
        with pytest.raises(OutOfRangeError):
            device.write_range(exposed - 1, 2)
        with pytest.raises(OutOfRangeError):
            device.write_pages(np.array([exposed], dtype=np.int64))
        with pytest.raises(OutOfRangeError):
            device.write_pages([3, -1])
        with pytest.raises(OutOfRangeError):
            device.read_range(exposed, 1)
        with pytest.raises(OutOfRangeError):
            device.trim_range(0, exposed + 1)
        # The drive itself still takes the reserved range (aging and
        # blkdiscard run below the block layer).
        tiny_ssd.write_range(exposed, 1)

    def test_does_not_fit_rejected(self, tiny_ssd):
        for fraction in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError, match="reserved_fraction"):
                BlockDevice(tiny_ssd, fraction)
        with pytest.raises(ConfigError, match="empty"):
            BlockDevice(tiny_ssd, 1.0 - 1e-9)

    def test_overprovisioned(self, tiny_ssd):
        device = BlockDevice(tiny_ssd, 0.25)
        assert device.npages == int(tiny_ssd.npages * 0.75)
        assert device.capacity_bytes == device.npages * tiny_ssd.page_size
        assert BlockDevice(tiny_ssd).npages == tiny_ssd.npages
