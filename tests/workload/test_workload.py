"""Tests for workload specs, key distributions, the load phase and
the lone closed-loop client."""

from __future__ import annotations

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.block.device import BlockDevice
from repro.core.clock import VirtualClock
from repro.errors import ConfigError
from repro.flash.ssd import SSD
from repro.fleet.pool import FleetPool
from repro.fs.filesystem import ExtentFilesystem
from repro.lsm.config import LSMConfig
from repro.lsm.store import LSMStore
from repro.workload.keys import (
    HotspotKeys,
    SequentialKeys,
    UniformKeys,
    ZipfianKeys,
    make_chooser,
)
from repro.workload.runner import load_sequential
from repro.workload.spec import WorkloadSpec
from tests.conftest import LONE_ROUTER, make_tiny_config


def fresh_rng():
    return rng_mod.substream(7, "test-keys")


class TestSpec:
    def test_defaults_match_paper(self):
        spec = WorkloadSpec(nkeys=100)
        assert spec.value_bytes == 4000
        assert spec.read_fraction == 0.0
        assert spec.distribution == "uniform"

    def test_dataset_bytes(self):
        spec = WorkloadSpec(nkeys=10, value_bytes=4000)
        assert spec.dataset_bytes == 10 * 4016

    def test_validation(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(nkeys=0)
        with pytest.raises(ConfigError):
            WorkloadSpec(nkeys=10, read_fraction=1.5)
        with pytest.raises(ConfigError):
            WorkloadSpec(nkeys=10, read_fraction=0.8, scan_fraction=0.4)
        with pytest.raises(ConfigError):
            WorkloadSpec(nkeys=10, read_fraction=0.5, scan_fraction=0.3,
                         delete_fraction=0.3)
        with pytest.raises(ConfigError):
            WorkloadSpec(nkeys=10, delete_fraction=-0.1)


class TestKeyChoosers:
    def test_uniform_in_range_and_deterministic(self):
        a = UniformKeys(1000, fresh_rng()).batch(500)
        b = UniformKeys(1000, fresh_rng()).batch(500)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 1000

    def test_uniform_covers_space(self):
        keys = UniformKeys(100, fresh_rng()).batch(5000)
        assert len(np.unique(keys)) > 95

    def test_sequential_wraps(self):
        chooser = SequentialKeys(3, fresh_rng())
        assert [chooser.next_key() for _ in range(7)] == [0, 1, 2, 0, 1, 2, 0]

    def test_zipfian_skewed(self):
        keys = ZipfianKeys(1000, fresh_rng()).batch(5000)
        assert keys.min() >= 0 and keys.max() < 1000
        _values, counts = np.unique(keys, return_counts=True)
        top_share = np.sort(counts)[::-1][:10].sum() / len(keys)
        assert top_share > 0.3  # heavy hitters dominate

    def test_zipfian_requires_theta(self):
        assert ZipfianKeys.THETA > 1.0  # numpy's zipf sampler needs it

    def test_hotspot_concentration(self):
        chooser = HotspotKeys(1000, fresh_rng())
        keys = chooser.batch(5000)
        hot_share = (keys < 1000 * HotspotKeys.HOT_FRACTION).mean()
        assert abs(hot_share - HotspotKeys.HOT_PROBABILITY) < 0.05

    def test_make_chooser_unknown(self):
        with pytest.raises(ConfigError):
            make_chooser("gaussian", 10, fresh_rng())


def make_store():
    clock = VirtualClock()
    ssd = SSD(make_tiny_config(nblocks=128), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    config = LSMConfig(memtable_bytes=8 * 1024, max_bytes_for_level_base=16 * 1024,
                       target_file_bytes=8 * 1024)
    return LSMStore(fs, clock, config)


class TestRunner:
    def test_load_sequential_ingests_all(self):
        store = make_store()
        spec = WorkloadSpec(nkeys=300, value_bytes=100)
        outcome = load_sequential([store], LONE_ROUTER, spec)
        assert outcome.ops_issued == 300
        assert not outcome.out_of_space
        assert outcome.load_seconds > 0
        _lat, value = store.get(299)
        assert value is not None

    def test_run_respects_max_ops(self):
        store = make_store()
        spec = WorkloadSpec(nkeys=100, value_bytes=100)
        outcome = FleetPool([store], LONE_ROUTER, spec, per_client=False,
                            max_ops=250).run()
        assert outcome.ops_issued == 250

    def test_stop_when_callback(self):
        store = make_store()
        spec = WorkloadSpec(nkeys=100, value_bytes=100)
        outcome = FleetPool(
            [store], LONE_ROUTER, spec, per_client=False,
            stop_when=lambda: store.clock.now > 0.05, max_ops=100_000,
        ).run()
        assert store.clock.now > 0.05
        assert outcome.ops_issued < 100_000

    def test_mixed_workload_issues_reads(self):
        store = make_store()
        spec = WorkloadSpec(nkeys=100, value_bytes=100, read_fraction=0.5)
        load_sequential([store], LONE_ROUTER, spec)
        FleetPool([store], LONE_ROUTER, spec, per_client=False,
                  max_ops=400).run()
        assert store.stats.gets > 100
        assert store.stats.puts > 100 + 100  # load + update share

    def test_sampling_callback_fires(self):
        store = make_store()
        spec = WorkloadSpec(nkeys=100, value_bytes=100)
        ticks = []
        FleetPool(
            [store], LONE_ROUTER, spec, per_client=False, max_ops=2000,
            sample_interval=0.01, on_sample=lambda: ticks.append(store.clock.now),
        ).run()
        assert len(ticks) > 2
        assert all(b > a for a, b in zip(ticks, ticks[1:]))

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            store = make_store()
            spec = WorkloadSpec(nkeys=100, value_bytes=100)
            FleetPool([store], LONE_ROUTER, spec, seed=5, per_client=False,
                      max_ops=500).run()
            results.append(store.clock.now)
        assert results[0] == results[1]

    def test_scan_workload(self):
        store = make_store()
        spec = WorkloadSpec(nkeys=50, value_bytes=64, scan_fraction=1.0,
                            scan_length=10)
        load_sequential([store], LONE_ROUTER, spec)
        FleetPool([store], LONE_ROUTER, spec, per_client=False,
                  max_ops=20).run()
        assert store.stats.scans == 20

    def test_delete_workload_issues_deletes(self):
        store = make_store()
        spec = WorkloadSpec(nkeys=100, value_bytes=100, delete_fraction=0.3)
        load_sequential([store], LONE_ROUTER, spec)
        FleetPool([store], LONE_ROUTER, spec, per_client=False,
                  max_ops=400).run()
        assert store.stats.deletes > 50
        assert store.stats.puts > 100  # load + the update share

    def test_delete_fraction_zero_stream_unchanged(self):
        # Adding the delete branch must not perturb the op stream of
        # pre-existing workloads (bit-identical seed behaviour).
        clocks = []
        for spec in (
            WorkloadSpec(nkeys=100, value_bytes=100, read_fraction=0.4),
            WorkloadSpec(nkeys=100, value_bytes=100, read_fraction=0.4,
                         delete_fraction=0.0),
        ):
            store = make_store()
            load_sequential([store], LONE_ROUTER, spec)
            FleetPool([store], LONE_ROUTER, spec, seed=11, per_client=False,
                      max_ops=300).run()
            assert store.stats.deletes == 0
            clocks.append(store.clock.now)
        assert clocks[0] == clocks[1]

    def test_sampling_args_fail_fast(self):
        store = make_store()
        spec = WorkloadSpec(nkeys=100, value_bytes=100)
        with pytest.raises(ConfigError):
            FleetPool([store], LONE_ROUTER, spec, sample_interval=0.1)
        with pytest.raises(ConfigError):
            FleetPool([store], LONE_ROUTER, spec, on_sample=lambda: None)
        with pytest.raises(ConfigError):
            FleetPool([store], LONE_ROUTER, spec, sample_interval=0.0,
                      on_sample=lambda: None)
        assert store.stats.ops == 0  # rejected before any op ran
