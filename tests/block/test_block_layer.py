"""Tests for the block layer: the device, its exposed range, iostat, blktrace."""

from __future__ import annotations

import numpy as np
import pytest

from repro.block.blktrace import BlkTrace
from repro.block.device import BlockDevice
from repro.block.iostat import IOStat
from repro.errors import ConfigError, OutOfRangeError


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

            def on_read(self, t, start, npages):
                seen.append(("r", npages))

        probe = Probe()
        device.attach(probe)
        device.write_range(0, 4)
        device.write_pages(np.array([9, 11], dtype=np.int64))
        device.read_range(0, 2)
        assert seen == [("w", 4), ("w", 2), ("r", 2)]
        device.detach(probe)
        device.write_range(0, 1)
        assert len(seen) == 3


class TestIOStat:
    def test_windowed_rates(self, device, clock):
        stat = IOStat(device.page_size, bin_seconds=0.01)
        device.attach(stat)
        device.write_range(0, 10)
        clock.advance(1.0)
        device.write_range(0, 30)
        assert stat.total_bytes_written == 40 * 4096
        assert stat.bytes_written_between(0.0, 0.5) == 10 * 4096
        assert stat.bytes_written_between(0.5, 1.5) == 30 * 4096
        assert stat.write_rate(0.0, 0.5) == pytest.approx(10 * 4096 / 0.5)

    def test_read_rates(self, device, clock):
        stat = IOStat(device.page_size, bin_seconds=0.01)
        device.attach(stat)
        device.write_range(0, 4)
        device.read_range(0, 4)
        assert stat.total_bytes_read == 4 * 4096
        assert stat.read_rate(0.0, 1.0) == pytest.approx(4 * 4096)

    def test_empty_window_zero(self):
        stat = IOStat(4096)
        assert stat.write_rate(0.0, 1.0) == 0.0
        assert stat.write_rate(1.0, 1.0) == 0.0


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

    def test_reset(self, device):
        trace = BlkTrace(device.npages)
        device.attach(trace)
        device.write_range(0, 5)
        device.read_range(0, 5)
        trace.reset()
        assert trace.fraction_never_written() == 1.0
        assert trace.fraction_never_read() == 1.0
        assert trace.total_read_requests == 0

    def test_read_histogram(self, device):
        trace = BlkTrace(device.npages)
        device.attach(trace)
        device.read_range(0, 4)
        device.read_range(2, 4)
        hist = trace.read_histogram
        assert hist[0] == 1 and hist[2] == 2 and hist[5] == 1
        assert trace.total_read_requests == 2
        assert trace.fraction_never_read() == pytest.approx(
            1 - 6 / device.npages
        )
        # Reads leave the write histogram untouched and vice versa.
        assert trace.total_write_requests == 0
        device.write_range(10, 2)
        assert trace.read_histogram[10] == 0


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
