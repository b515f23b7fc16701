"""Tests for the block layer: the device, its exposed range, its byte
counters and its per-LBA write histogram (blktrace)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.block.device import BlockDevice
from repro.errors import (ConfigError, DeviceError, OutOfRangeError,
                          ProgramFaultError)
from repro.faults import FaultPlan, RetryPolicy
from repro.rng import substream
from tests.conftest import one_page_runs


@pytest.fixture
def device(tiny_ssd):
    return BlockDevice(tiny_ssd)


class TestBlockDevice:
    def test_forwards_geometry(self, device, tiny_ssd):
        assert device.page_size == tiny_ssd.page_size
        assert device.npages == tiny_ssd.npages

class TestByteCounters:
    """``bytes_written`` / ``bytes_read``: what iostat reads deltas of."""

    def test_writes_count_their_pages(self, device, clock):
        assert device.counters() == {"block.bytes_written": 0,
                                     "block.bytes_read": 0}
        device.write_runs([0], [10])
        clock.advance(1.0)  # cumulative: no window, no bin
        device.write_runs([0], [30])
        # A request of several runs counts its pages, not its runs.
        device.write_runs(*one_page_runs(np.array([1, 9, 17, 25], dtype=np.int64)))
        device.write_runs(*one_page_runs([3, 5]))
        assert device.counters() == {"block.bytes_written": 46 * 4096,
                                     "block.bytes_read": 0}
        assert type(device.bytes_written) is int

    def test_reads_count_their_pages(self, device):
        device.write_runs([0], [4])
        device.read_runs([0], [4])
        # One submission, one bump; an empty range is no request.
        assert len(device.read_runs([0, 50, 7], [3, 0, 1])) == 3
        assert device.counters() == {"block.bytes_written": 4 * 4096,
                                     "block.bytes_read": 8 * 4096}
        assert type(device.bytes_read) is int

    def test_empty_and_trim_requests_count_nothing(self, device):
        device.write_runs([0], [8])
        before = device.counters()
        device.write_runs([4], [0])
        device.write_runs(*one_page_runs([]))
        device.read_runs([4], [0])
        device.read_runs([], [])
        device.trim_range(0, 8)
        assert device.counters() == before

    def test_a_refused_request_counts_nothing(self, tiny_ssd):
        device = BlockDevice(tiny_ssd, 0.25)
        exposed = device.npages
        for refused in (lambda: device.write_runs([exposed - 1], [2]),
                        lambda: device.write_runs(*one_page_runs([0, exposed])),
                        lambda: device.read_runs([exposed], [1])):
            with pytest.raises(OutOfRangeError):
                refused()
        assert device.counters() == {"block.bytes_written": 0,
                                     "block.bytes_read": 0}
        # A batch is served up to the bad request, like the loop.
        with pytest.raises(OutOfRangeError):
            device.read_runs([0, exposed - 1, 8], [2, 2, 1])
        assert device.bytes_read == 2 * 4096

    @pytest.mark.parametrize("request_, error", [
        pytest.param(lambda d: d.read_runs([0, 1, 2], [1]), DeviceError,
                     id="more-starts"),
        pytest.param(lambda d: d.read_runs([0], [1, 1]), DeviceError,
                     id="more-lengths"),
        pytest.param(lambda d: d.read_runs([0, 9], [-2, 1]),
                     OutOfRangeError, id="negative-in-batch"),
        pytest.param(lambda d: d.read_runs([0], [-3]), OutOfRangeError,
                     id="negative-read"),
        pytest.param(lambda d: d.write_runs([0], [-3]), OutOfRangeError,
                     id="negative-write"),
        pytest.param(lambda d: d.trim_range(0, -1), OutOfRangeError,
                     id="negative-trim"),
    ])
    def test_a_malformed_request_is_refused_whole(self, device, request_, error):
        """Unequal batch columns or a negative length: refused before
        the drive sees anything, where a zero length is a no-op."""
        device.write_runs([0], [16])
        before = (device.counters(), device.ssd.smart.as_dict())
        with pytest.raises(DeviceError) as raised:
            request_(device)
        assert raised.type is error
        assert (device.counters(), device.ssd.smart.as_dict()) == before

    def test_a_retried_write_counts_once_and_a_failed_one_never(self, device):
        smart = device.ssd.smart
        device.ssd.faults = FaultPlan({"program": 0.5}, substream(3, "faults"))
        device.retry = RetryPolicy(8, 1e-4)
        for page in range(20):
            device.write_runs([page], [1])
        assert smart.program_failures > 0
        assert device.bytes_written == smart.host_bytes_written == 20 * 4096
        device.ssd.faults = FaultPlan({"program": 1.0}, substream(3, "faults"))
        for device.retry in (RetryPolicy(1, 1e-4), None):  # budget spent, none
            for failing in (lambda: device.write_runs([0], [2]),
                            lambda: device.write_runs(*one_page_runs([1, 2]))):
                with pytest.raises(ProgramFaultError):
                    failing()
        assert device.bytes_written == smart.host_bytes_written == 20 * 4096


class TestBlkTrace:
    """``lba_histogram``: writes per logical page, counted by the device
    once :meth:`BlockDevice.count_lba_writes` is called (Fig 4)."""

    def test_histogram_counts(self, device):
        device.count_lba_writes()
        device.write_runs([0], [4])
        device.write_runs([2], [4])
        hist = device.lba_histogram
        assert hist[0] == 1 and hist[2] == 2 and hist[5] == 1
        assert hist.sum() * device.page_size == device.bytes_written

    def test_page_list_writes(self, device):
        device.count_lba_writes()
        device.write_runs(*one_page_runs(np.array([1, 1 + 7], dtype=np.int64)))
        device.write_runs([20, 8], [3, 1])
        assert device.lba_histogram[[1, 8, 20, 22, 23]].tolist() == [1, 2, 1, 1, 0]

    def test_counts_from_the_call_on_and_writes_only(self, device):
        assert device.lba_histogram is None  # off by default
        device.write_runs([0], [1])  # before counting: not shown
        device.count_lba_writes()
        device.write_runs([0], [4])
        device.write_runs([9, 11], [1, 3])
        device.read_runs([0], [2])  # reads are not counted
        device.read_runs([0, 9], [1, 1])
        assert device.lba_histogram[:16].tolist() == \
            [1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0]

    def test_fraction_never_written(self, tiny_ssd):
        """The histogram spans the drive, not the exposed range: a
        reserved tail counts among the pages never written."""
        device = BlockDevice(tiny_ssd, 0.25)
        device.count_lba_writes()
        device.write_runs([0], [device.npages])
        hist = device.lba_histogram
        assert hist.size == tiny_ssd.npages
        assert np.count_nonzero(hist == 0) == tiny_ssd.npages - device.npages

    def test_refused_and_retried_requests(self, device):
        """A refused request counts nothing; a retried write counts once,
        a failed one never."""
        device.count_lba_writes()
        with pytest.raises(OutOfRangeError):
            device.write_runs([0, device.npages], [1, 1])
        assert not device.lba_histogram.any()
        device.ssd.faults = FaultPlan({"program": 0.5}, substream(3, "faults"))
        device.retry = RetryPolicy(8, 1e-4)
        for page in range(20):
            device.write_runs([page], [1])
        assert device.ssd.smart.program_failures > 0
        device.ssd.faults = FaultPlan({"program": 1.0}, substream(3, "faults"))
        device.retry = None
        with pytest.raises(ProgramFaultError):
            device.write_runs([0], [2])
        assert device.lba_histogram[:21].tolist() == [1] * 20 + [0]


class TestPartition:
    """The paper's over-provisioning partition (§4.6) is the block
    device's exposed range: ``[0, npages × (1 − reserved_fraction))``."""

    def test_bounds_enforced(self, tiny_ssd):
        device = BlockDevice(tiny_ssd, 0.25)
        exposed = device.npages
        device.write_runs([exposed - 2], [2])
        with pytest.raises(OutOfRangeError):
            device.write_runs([exposed - 1], [2])
        with pytest.raises(OutOfRangeError):
            device.write_runs(*one_page_runs(np.array([exposed], dtype=np.int64)))
        with pytest.raises(OutOfRangeError):
            device.write_runs(*one_page_runs([3, -1]))
        with pytest.raises(OutOfRangeError):
            device.read_runs([exposed], [1])
        with pytest.raises(OutOfRangeError):
            device.trim_range(0, exposed + 1)
        # The drive itself still takes the reserved range (aging and
        # blkdiscard run below the block layer).
        tiny_ssd.write_runs([exposed], [1])

    def test_does_not_fit_rejected(self, tiny_ssd):
        for fraction in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError, match="reserved_fraction"):
                BlockDevice(tiny_ssd, fraction)
        with pytest.raises(ConfigError, match="empty"):
            BlockDevice(tiny_ssd, 1.0 - 1e-9)

    def test_overprovisioned(self, tiny_ssd):
        device = BlockDevice(tiny_ssd, 0.25)
        assert device.npages == int(tiny_ssd.npages * 0.75)
        assert BlockDevice(tiny_ssd).npages == tiny_ssd.npages
