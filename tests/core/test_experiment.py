"""Tests for experiment orchestration and the metrics collector."""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.btree.config import BTreeConfig
from repro.core import experiment
from repro.core.experiment import Engine, ExperimentSpec, build_stack, run_experiment
from repro.core.metrics import end_to_end_write_amplification
from repro.errors import ConfigError
from repro.flash.state import DriveState
from repro.units import MIB
from tests.conftest import mapped

FAST = dict(
    capacity_bytes=24 * MIB,
    duration_capacity_writes=2.0,
    sample_interval=0.05,
    max_ops=30_000,
)


class TestSpec:
    def test_nkeys_from_fraction(self):
        spec = ExperimentSpec(capacity_bytes=100 * MIB, dataset_fraction=0.5,
                              value_bytes=4000)
        assert spec.nkeys == int(50 * MIB / 4016)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(dataset_fraction=0.0)
        with pytest.raises(ConfigError):
            ExperimentSpec(sample_interval=0)

    @pytest.mark.parametrize("bad", [
        dict(read_fraction=-0.1),
        dict(read_fraction=1.2),
        dict(scan_fraction=1.5),
        dict(delete_fraction=-1),
        dict(read_fraction=0.6, scan_fraction=0.3, delete_fraction=0.2),
        dict(scan_length=0),
        dict(value_bytes=-1),
        dict(op_reserved_fraction=-0.2),
        dict(op_reserved_fraction=1.0),
        dict(distribution="pareto"),
        # Each of these used to get past construction and fail later —
        # a numpy ValueError, a TypeError, a worker — or run nothing.
        dict(seed=-1),
        dict(max_ops=0),
        dict(max_ops=-5),
        dict(engine=Engine.BTREE, value_bytes=40_000),
        dict(engine=Engine.BTREE, value_bytes=32_745),
        # Found by tests/core/test_spec_fuzz.py: a NoSpaceError traceback
        # from the B+Tree's constructor, which pre-allocates 2 MiB.
        dict(engine=Engine.BTREE, capacity_bytes=8 * MIB, nshards=2,
             op_reserved_fraction=0.6),
        dict(ssd="ssd9"),
        # NaN passes `x <= 0`; these ran (or died in int()) at the load.
        dict(duration_capacity_writes=math.nan),
        dict(duration_capacity_writes=math.inf),
        dict(sample_interval=math.nan),
        dict(sample_interval=math.inf),
        dict(slo_ms=math.nan),
        dict(arrival="poisson", arrival_rate=1000.0, kill_at=math.nan),
        dict(arrival="poisson", arrival_rate=math.nan),
        dict(arrival="poisson", arrival_rate=1000.0, op_timeout_ms=math.nan),
        dict(retry_backoff_ms=math.nan),
        # A driver the spec's shape would silently ignore.
        dict(driver="inline", nshards=2),
        dict(driver="pool", arrival="poisson", arrival_rate=1000.0),
        # A deadline a closed loop ran without: only the open-loop
        # fleet queues ops, so it alone can time them out.
        dict(op_timeout_ms=5.0, nclients=4),
        # Counts that are not integers: each died deep in the stack (a
        # TypeError, an IndexError, numpy) or ran on a truncated value;
        # a bool passed as 1.  Unknown names raised the enum's ValueError.
        dict(nclients=2.5),
        dict(nshards=2.0),
        dict(value_bytes=100.5),
        dict(scan_length=2.5),
        dict(arrival="poisson", arrival_rate=1000.0, nshards=2, kill_at=0.05,
             kill_shard=1.0),
        dict(max_ops=2.5),
        dict(capacity_bytes=24.5 * MIB),
        dict(queue_cap=2.5),
        dict(retry_limit=2.5),
        dict(nclients=True),
        dict(seed=True),
        dict(drive_state="nope"),
        dict(engine="nope"),
        # Counts and names the rest of the spec bounds.
        dict(nclients=0),
        dict(nshards=0),
        dict(queue_cap=0),
        dict(retry_limit=-1),
        dict(router="random"),
        dict(driver="batched"),
        dict(kill_shard=1),
    ])
    def test_fails_fast_before_building_the_stack(self, bad):
        """Bad fractions/ranges must raise at construction, not after
        the whole device has been assembled and preconditioned."""
        with pytest.raises(ConfigError):
            ExperimentSpec(**bad)

    def test_the_largest_btree_value_fills_one_leaf(self):
        # 32 KiB leaf − 16 B key − 8 B entry overhead: the largest value
        # a split can leave on both sides.  The LSM has no such bound.
        ExperimentSpec(engine=Engine.BTREE, value_bytes=32_744)
        ExperimentSpec(engine=Engine.LSM, value_bytes=40_000)

    def test_the_leaf_check_reads_the_btree_config(self, monkeypatch):
        monkeypatch.setattr(experiment, "BTreeConfig",
                            partial(BTreeConfig, leaf_page_bytes=16 * 1024))
        ExperimentSpec(engine=Engine.BTREE, value_bytes=8_000)
        with pytest.raises(ConfigError, match="16384-byte B"):
            ExperimentSpec(engine=Engine.BTREE, value_bytes=16_361)

    def test_an_open_loop_deadline_is_accepted(self):
        ExperimentSpec(arrival="poisson", arrival_rate=1000.0,
                       op_timeout_ms=5.0)

    def test_lsm_scans_beyond_the_packed_key_range_fail_before_the_load(self):
        big = dict(capacity_bytes=8192 * MIB, value_bytes=16)  # 2^27 keys
        ExperimentSpec(**big)  # no scans: nothing to pack
        ExperimentSpec(engine=Engine.BTREE, scan_fraction=0.1, **big)
        with pytest.raises(ConfigError, match="scan merge"):
            ExperimentSpec(scan_fraction=0.1, **big)

    def test_workload_reflects_spec(self):
        spec = ExperimentSpec(value_bytes=128, read_fraction=0.5)
        workload = spec.workload()
        assert workload.value_bytes == 128
        assert workload.read_fraction == 0.5

    def test_workload_carries_scan_and_delete_mix(self):
        """The spec -> workload wiring that used to silently drop
        scan/delete fractions (so no experiment could ever scan)."""
        spec = ExperimentSpec(read_fraction=0.2, scan_fraction=0.3,
                              scan_length=25, delete_fraction=0.1,
                              distribution="zipfian")
        workload = spec.workload()
        assert workload.scan_fraction == 0.3
        assert workload.scan_length == 25
        assert workload.delete_fraction == 0.1
        assert workload.distribution == "zipfian"

    def test_dict_roundtrip_and_stable_hash(self):
        spec = ExperimentSpec(engine=Engine.BTREE, ssd="ssd2",
                              drive_state=DriveState.PRECONDITIONED,
                              scan_fraction=0.25, nclients=4)
        clone = ExperimentSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.stable_hash() == spec.stable_hash()
        assert ExperimentSpec().stable_hash() != spec.stable_hash()
        # A cell is what it simulates: the name is not part of it.
        assert replace(spec, name="other").stable_hash() == spec.stable_hash()
        with pytest.raises(ConfigError):
            ExperimentSpec.from_dict({"no_such_field": 1})

    @pytest.mark.parametrize("name, numpy_value, value", [
        ("seed", np.int64(5), 5), ("max_ops", np.int64(100), 100),
        ("nclients", np.int64(2), 2),
        ("capacity_bytes", np.int64(64 * MIB), 64 * MIB),
        ("dataset_fraction", np.float32(0.5), 0.5),
    ])
    def test_a_numpy_number_hashes_like_its_python_value(self, name,
                                                         numpy_value, value):
        spec = ExperimentSpec(**{name: numpy_value})
        plain = ExperimentSpec(**{name: value})
        assert spec.stable_hash() == plain.stable_hash()
        assert spec.to_dict() == plain.to_dict()
        assert type(spec.to_dict()[name]) is type(value)

    @pytest.mark.parametrize("name, value", [
        ("fs_strategy", "scatter"), ("fs_discard", False),
        ("gc_policy", "greedy"), ("engine_options", {}),
        ("ssd_options", {}), ("arrival_options", {}),
    ])
    def test_a_deleted_field_is_refused_by_name(self, name, value):
        """A record written while the spec still had these fields
        (a campaign store, a cell's ``spec``) is refused, not run on
        a setting it no longer has."""
        with pytest.raises(ConfigError, match=name):
            ExperimentSpec.from_dict({**ExperimentSpec().to_dict(),
                                      name: value})


class TestBuildStack:
    def test_stack_components_wired(self):
        spec = ExperimentSpec(**FAST)
        stack = build_stack(spec)
        (shard,) = stack.shards
        assert stack.stores == [shard.store]
        assert stack.router.nshards == 1
        assert shard.store.clock is stack.clock
        assert shard.fs.device is shard.device
        assert shard.device.ssd is shard.ssd
        assert shard.device.npages == shard.ssd.npages
        assert shard.device.retry is None
        assert shard.device.lba_histogram is None

    def test_op_partition_restricts_space(self):
        spec = ExperimentSpec(op_reserved_fraction=0.25, **FAST)
        (shard,) = build_stack(spec).shards
        assert shard.device.npages == int(shard.ssd.npages * 0.75)
        assert shard.fs.allocator.npages == shard.device.npages
        assert shard.fs.allocator.npages < shard.ssd.npages

    def test_engine_selection(self):
        (lsm,) = build_stack(ExperimentSpec(engine=Engine.LSM, **FAST)).stores
        (btree,) = build_stack(ExperimentSpec(engine=Engine.BTREE, **FAST)).stores
        assert lsm.name == "lsm"
        assert btree.name == "btree"

    def test_preconditioned_drive_is_full(self):
        spec = ExperimentSpec(drive_state=DriveState.PRECONDITIONED, **FAST)
        ssd = build_stack(spec).shards[0].ssd
        assert mapped(ssd).all()


class TestRunExperiment:
    @pytest.fixture(scope="class")
    def lsm_result(self):
        return run_experiment(ExperimentSpec(engine=Engine.LSM, **FAST))

    @pytest.fixture(scope="class")
    def btree_result(self):
        return run_experiment(ExperimentSpec(engine=Engine.BTREE, **FAST))

    def test_produces_samples(self, lsm_result):
        assert len(lsm_result.samples) > 5
        times = [s.t for s in lsm_result.samples]
        assert times == sorted(times)

    def test_steady_summary_present(self, lsm_result):
        assert lsm_result.steady is not None
        assert lsm_result.steady.kv_tput > 0

    def test_wa_metrics_sane(self, lsm_result, btree_result):
        for result in (lsm_result, btree_result):
            final = result.samples[-1]
            assert final.wa_a > 1.0
            assert final.wa_d >= 1.0
            assert end_to_end_write_amplification(final) >= final.wa_a

    def test_space_accounting(self, lsm_result, btree_result):
        assert lsm_result.peak_space_amp > 1.0
        assert btree_result.peak_space_amp > 1.0
        assert 0 < lsm_result.peak_disk_utilization <= 1.0

    def test_engine_contrast_lsm_faster_btree_smaller(self, lsm_result, btree_result):
        """The paper's headline contrast at matched settings."""
        assert lsm_result.steady.kv_tput > btree_result.steady.kv_tput
        assert lsm_result.peak_space_amp > btree_result.peak_space_amp

    def test_completed_flag(self, lsm_result):
        assert lsm_result.completed
        assert not lsm_result.out_of_space

    def test_lba_trace_optional(self):
        spec = ExperimentSpec(engine=Engine.BTREE, trace_lba=True, **FAST)
        result = run_experiment(spec)
        assert result.lba_histogram is not None
        assert 0.0 <= result.lba_never_written <= 1.0

    def test_out_of_space_reported_not_raised(self):
        spec = ExperimentSpec(engine=Engine.LSM, capacity_bytes=24 * MIB,
                              dataset_fraction=0.95, duration_capacity_writes=2.0,
                              sample_interval=0.1)
        result = run_experiment(spec)
        assert result.out_of_space
        assert not result.completed

    def test_deterministic_given_seed(self):
        spec = ExperimentSpec(engine=Engine.LSM, seed=11, **FAST)
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.smart == b.smart
        assert a.ops_issued == b.ops_issued

    @pytest.mark.parametrize("engine", [Engine.LSM, Engine.BTREE])
    def test_scan_delete_mix_reaches_the_engines(self, engine):
        """End to end: a mixed spec drives the engines' scan and delete
        paths (both were unreachable before the workload() fix)."""
        spec = ExperimentSpec(engine=engine, read_fraction=0.2,
                              scan_fraction=0.2, scan_length=10,
                              delete_fraction=0.2, **FAST)
        result = run_experiment(spec)
        assert result.kv_ops["scans"] > 0
        assert result.kv_ops["deletes"] > 0
        assert result.kv_ops["gets"] > 0
        assert result.kv_ops["puts"] > 0

    def test_result_to_dict_is_json_clean(self):
        import json

        spec = ExperimentSpec(engine=Engine.LSM, **FAST)
        record = run_experiment(spec).to_dict()
        reloaded = json.loads(json.dumps(record))
        assert json.dumps(reloaded, sort_keys=True) == \
            json.dumps(record, sort_keys=True)
        assert reloaded["cell"] == spec.stable_hash()
        assert reloaded["steady"]["kv_tput"] > 0
        assert len(reloaded["samples"]) == len(record["samples"])
