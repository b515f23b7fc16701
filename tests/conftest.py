"""Shared fixtures for the test suite: tiny devices that exercise the
same code paths as the paper-scale configurations but run in
milliseconds."""

from __future__ import annotations

import contextlib
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from repro.campaign import CampaignStore
from repro.core import figures
from repro.core.clock import VirtualClock
from repro.flash.config import SSDConfig
from repro.flash.ssd import SSD
from repro.fleet.router import make_router
from repro.units import usec

# ``--hypothesis-profile=ci``: ten times the default example count,
# the same examples on every run.  CI's tier-1 job runs the allocator's
# property tests and model lockstep (tests/fs/test_allocator.py), the
# FTL lockstep (tests/flash/test_ftl_lockstep.py), the device-timing
# lockstep (tests/flash/test_timing_lockstep.py), the driver lockstep
# (tests/workload/test_driver_lockstep.py), the LSM reads lockstep
# (tests/lsm/test_reads_lockstep.py) and the KV model
# (tests/kv/test_kv_model.py) under it.
settings.register_profile("ci", max_examples=1000, derandomize=True,
                          deadline=None)

#: On one CPU the cell runner runs every cell inline: a test of the
#: pool (or of a worker dying in it) has nothing to check there.
NEEDS_A_POOL = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="on one CPU cells run inline, without a worker pool")


@contextlib.contextmanager
def one_cpu():
    """Pin the process to one CPU, so the cell runner runs inline."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


#: The router of a one-shard store list (``[store]``): every key to shard 0.
LONE_ROUTER = make_router("range", 1, 1)


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


def one_page_runs(lpns):
    """Distinct pages as the ``(starts, lens)`` columns of one request
    of length-1 runs (``write_runs``)."""
    lpns = np.asarray(lpns, dtype=np.int64)
    return lpns, np.ones(lpns.size, dtype=np.int64)


def counters_since(block, earlier):
    """The counters *block* accumulated since *earlier*, its
    ``as_dict()``."""
    return type(block)(**{name: value - earlier[name]
                          for name, value in block.as_dict().items()})


def mapped(device):
    """Which logical pages hold data, one bool per page, read through
    the FTL's white-box accessor (``state_arrays`` drains the
    write-behind log first).  *device* is an SSD or its FTL."""
    l2p, _p2l, _valid = getattr(device, "ftl", device).state_arrays()
    return l2p >= 0


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def tiny_config() -> SSDConfig:
    return make_tiny_config()


@pytest.fixture
def tiny_ssd(tiny_config, clock) -> SSD:
    return SSD(tiny_config, clock)


def count_requests(patch) -> list[int]:
    """Count the cells the figures request, through *patch* (a
    ``MonkeyPatch``): the returned ``[n]`` grows by the number of specs
    each ``figures.run_cells`` call asks for."""
    counts = [0]
    real = figures.run_cells

    def run_cells(requests):
        counts[0] += len(requests)
        return real(requests)

    patch.setattr(figures, "run_cells", run_cells)
    return counts


@pytest.fixture(scope="session")
def figure_sweep():
    """The ten figures at SMALL, run once per session: cold from an
    empty in-memory store, then warm, on the cell runner's worker pool.

    ``passes`` is ``[cold, warm]``, each ``{figure_id: (cells
    requested, cells simulated, figure)}``: requests counted around
    ``figures.run_cells``, simulations as the store's growth;
    ``cells`` is what the store holds, one record per cell hash.
    The process's own store is put back afterwards.
    """
    store = CampaignStore()
    with pytest.MonkeyPatch.context() as patch:
        asked = count_requests(patch)
        patch.setattr(figures, "STORE", store)
        passes = []
        for _ in ("cold", "warm"):
            record = {}
            for figure_id, build in figures.FIGURES.items():
                before = asked[0], len(store.cells)
                figure = build(figures.SMALL)
                record[figure_id] = (asked[0] - before[0],
                                     len(store.cells) - before[1], figure)
            passes.append(record)
    return SimpleNamespace(passes=passes, cells=store.cells)
