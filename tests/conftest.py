"""Shared fixtures for the test suite: tiny devices that exercise the
same code paths as the paper-scale configurations but run in
milliseconds."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.clock import VirtualClock
from repro.flash.config import SSDConfig
from repro.flash.ssd import SSD
from repro.units import usec

# ``--hypothesis-profile=ci``: ten times the default example count,
# the same examples on every run.  CI's tier-1 job runs the FTL
# lockstep (tests/flash/test_ftl_lockstep.py), the driver lockstep
# (tests/workload/test_driver_lockstep.py), the LSM reads lockstep
# (tests/lsm/test_reads_lockstep.py) and the KV model
# (tests/kv/test_kv_model.py) under it.
settings.register_profile("ci", max_examples=1000, derandomize=True,
                          deadline=None)


def make_tiny_config(**overrides) -> SSDConfig:
    """A 1024-page device: 32 blocks of 32 pages, ~12% over-provisioning."""
    params = dict(
        name="tiny",
        page_size=4096,
        pages_per_block=32,
        nblocks=32,
        hw_overprovision=0.25,
        read_latency=usec(80.0),
        page_read_time=usec(10.0),
        program_time=usec(200.0),
        erase_time=usec(2000.0),
        channels=8,
        write_cache_bytes=64 * 1024,
        write_latency=usec(20.0),
        gc_low_watermark=0.07,
        gc_high_watermark=0.15,
    )
    params.update(overrides)
    return SSDConfig(**params)


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def tiny_config() -> SSDConfig:
    return make_tiny_config()


@pytest.fixture
def tiny_ssd(tiny_config, clock) -> SSD:
    return SSD(tiny_config, clock)
