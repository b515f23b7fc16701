"""FleetPool's closed clients against the reference pool (DESIGN.md §7).

The shipped pool client issues operation segments through the engines'
batch API with an event-scheduler-aware ``until``; the reference pool
(``tests/workload/reference_driver.py``, which shares no code with it)
issues one per-op KV call per scheduler event.  For any client count
the two must be *bit-identical* at the op, latency, and
full-experiment level: same operations at the same virtual times in
the same global order, hence the same clock, SMART counters,
per-client op counts, per-op latency series, and sample series.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import Engine, ExperimentSpec, build_stack
from repro.fleet.pool import FleetPool
from repro.units import MIB
from repro.workload.runner import load_sequential
from tests.conftest import LONE_ROUTER
from tests.workload import reference_driver
from tests.workload.reference_experiment import assert_matches_reference

FAST = dict(
    capacity_bytes=24 * MIB,
    dataset_fraction=0.3,
    duration_capacity_writes=50.0,
    sample_interval=0.05,
    max_ops=2500,
)

MIXED = dict(read_fraction=0.25, scan_fraction=0.1, delete_fraction=0.05,
             scan_length=20)

ENGINES = (Engine.LSM, Engine.BTREE)


def pool_outcome(engine: Engine, nclients: int, reference: bool = False,
                 **overrides):
    """Load, drain and run *nclients* on a fresh stack, through the
    shipped pool or the reference one; more than one client runs on
    per-channel device timing."""
    spec = ExperimentSpec(engine=engine, nclients=nclients, **FAST, **overrides)
    stack = build_stack(spec)
    clock, ssd, store = stack.clock, stack.shards[0].ssd, stack.shards[0].store
    load_sequential(stack.stores, stack.router, spec.workload())
    stack.drain()
    if nclients > 1:
        stack.enable_channel_timing()
    if reference:
        outcome = reference_driver.run_pool([store], LONE_ROUTER,
                                            spec.workload(), nclients,
                                            seed=7, max_ops=spec.max_ops)
    else:
        outcome = FleetPool(stack.stores, stack.router, spec.workload(),
                            nclients, seed=7, max_ops=spec.max_ops).run()
    return outcome, clock, ssd, store


class TestPoolEquivalence:
    """n-client shipped pool == reference pool, bit for bit."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("nclients", (1, 4))
    def test_counts_clock_smart_and_latencies(self, engine, nclients):
        reference, clock_a, ssd_a, store_a = pool_outcome(
            engine, nclients, reference=True, **MIXED)
        shipped, clock_b, ssd_b, store_b = pool_outcome(engine, nclients, **MIXED)
        assert shipped.ops_issued == reference.ops_issued
        assert shipped.per_client_ops == reference.per_client_ops
        assert clock_b.now == clock_a.now  # bit-identical, not approx
        assert ssd_b.smart.as_dict() == ssd_a.smart.as_dict()
        assert store_b.stats.as_dict() == store_a.stats.as_dict()
        # Latency series, not just percentiles: every op's latency in
        # completion order, per client.
        for client in range(nclients):
            assert shipped.latencies.series(client).tolist() == \
                reference.latencies[client]
        pooled = np.concatenate(reference.latencies)
        for q in (50, 95, 99):
            assert np.percentile(shipped.latencies.pooled(), q) == np.percentile(pooled, q)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_channel_timing_case(self, engine):
        # Four clients run on per-channel device timing; the shipped
        # client must interleave identically there.
        reference, clock_a, ssd_a, _sa = pool_outcome(engine, 4, reference=True)
        shipped, clock_b, ssd_b, _sb = pool_outcome(engine, 4)
        assert clock_b.now == clock_a.now
        assert ssd_b.smart.as_dict() == ssd_a.smart.as_dict()
        assert np.percentile(shipped.latencies.pooled(), 99) == \
            np.percentile(np.concatenate(reference.latencies), 99)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("nclients", (1, 4))
    def test_full_experiment_record_identical(self, engine, nclients):
        result = assert_matches_reference(ExperimentSpec(
            engine=engine, nclients=nclients, driver="pool", **FAST, **MIXED))
        assert result.samples
        assert result.client_latencies.count() == FAST["max_ops"]


class TestSeedCompatibilityBatched:
    def test_driver_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            ExperimentSpec(driver="turbo")
        with pytest.raises(ConfigError):
            ExperimentSpec(driver="inline", nclients=2)


class TestOutOfSpaceBatched:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_out_of_space_equivalent(self, engine):
        spec = ExperimentSpec(
            engine=engine, capacity_bytes=24 * MIB, dataset_fraction=0.85,
            duration_capacity_writes=60.0, sample_interval=0.05, nclients=4,
        )
        assert assert_matches_reference(spec).out_of_space
