"""Tests for the multi-client pool: determinism and seed compatibility."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.experiment import (Engine, ExperimentSpec, build_stack,
                                   run_experiment, run_measured_phase)
from repro.core.metrics import MetricsCollector
from repro.errors import ConfigError
from repro.flash.ssd import ChannelTimeline
from repro.fleet.pool import FleetPool
from repro.obs import NULL_TRACER, Tracer
from repro.units import MIB
from repro.workload.runner import load_sequential
from tests.conftest import LONE_ROUTER

#: Small but real: exercises flush/compaction/checkpoint paths in
#: milliseconds.  The write-byte budget is set high so max_ops decides
#: the run length deterministically.
FAST = dict(
    capacity_bytes=24 * MIB,
    dataset_fraction=0.3,
    duration_capacity_writes=50.0,
    sample_interval=0.05,
    max_ops=2500,
)

ENGINES = (Engine.LSM, Engine.BTREE)


def loaded_stack(engine: Engine, nclients: int = 1, **overrides):
    """A freshly built stack with the dataset loaded and drained, its
    device timed per channel when more than one client will run (as
    ``run_measured_phase`` does)."""
    spec = ExperimentSpec(engine=engine, nclients=nclients, **FAST, **overrides)
    stack = build_stack(spec)
    load_sequential(stack.stores, stack.router, spec.workload())
    stack.drain()
    if nclients > 1:
        stack.enable_channel_timing()
    return spec, stack.clock, stack.shards[0].ssd, stack.shards[0].store


def run_pool(engine: Engine, nclients: int, seed: int = 7,
             tracer=NULL_TRACER, **overrides):
    spec, clock, ssd, store = loaded_stack(engine, nclients, **overrides)
    pool = FleetPool(
        [store], LONE_ROUTER, spec.workload(), nclients, seed=seed,
        max_ops=spec.max_ops, tracer=tracer,
    )
    outcome = pool.run()
    return outcome, clock, ssd, store


def run_pool_timeline(engine: Engine, nclients: int, seed: int = 7):
    """``run_pool`` under a flight recorder wired to the pool alone: the
    event timeline is its ``sched`` spans, ``(label, time, step
    seconds)`` per dispatched event in dispatch order."""
    tracer = Tracer()
    tracer.enable()
    outcome, clock, _ssd, store = run_pool(engine, nclients, seed, tracer)
    assert tracer.dropped == 0
    timeline = [(e[3], e[1], e[2]) for e in tracer.events() if e[4] == "sched"]
    assert len(timeline) == outcome.events_run
    return timeline, outcome, clock, store


class TestSeedCompatibility:
    """The lone client: the paper's single user thread."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_per_client_changes_nothing_else(self, engine):
        """driver="pool" makes a 1-client experiment record per-client
        results; everything simulated stays bit-identical."""
        plain = run_experiment(ExperimentSpec(engine=engine, **FAST))
        pooled = run_experiment(
            ExperimentSpec(engine=engine, driver="pool", **FAST))
        assert pooled.ops_issued == plain.ops_issued
        assert pooled.run_seconds == plain.run_seconds
        assert pooled.samples == plain.samples
        assert pooled.smart == plain.smart
        assert pooled.counters == plain.counters
        assert plain.client_latencies is None
        assert plain.per_client_ops is None
        assert pooled.client_latencies.count() == pooled.ops_issued
        assert pooled.per_client_ops == [pooled.ops_issued]


class TestDeterminism:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("nclients", (1, 4))
    def test_same_seed_same_trace_and_stats(self, engine, nclients):
        trace_a, first, clock_a, store_a = run_pool_timeline(engine, nclients)
        trace_b, second, clock_b, store_b = run_pool_timeline(engine, nclients)
        assert trace_a == trace_b  # identical event timeline
        assert first.ops_issued == second.ops_issued
        assert first.per_client_ops == second.per_client_ops
        assert clock_a.now == clock_b.now
        assert store_a.stats.as_dict() == store_b.stats.as_dict()

    def test_different_seed_different_trace(self):
        first, *_ = run_pool_timeline(Engine.LSM, nclients=4, seed=7)
        second, *_ = run_pool_timeline(Engine.LSM, nclients=4, seed=8)
        assert first != second


class TestConcurrency:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_multi_client_ops_add_up(self, engine):
        outcome, *_ = run_pool(engine, nclients=4)
        assert outcome.ops_issued == FAST["max_ops"]
        assert sum(outcome.per_client_ops) == outcome.ops_issued
        assert all(ops > 0 for ops in outcome.per_client_ops)
        assert outcome.latencies.count() == outcome.ops_issued

    def test_more_clients_raise_virtual_throughput(self):
        # Closed-loop clients overlap on the device channels, so the
        # same op budget completes in less virtual time.
        one, clock_one, *_ = run_pool(Engine.BTREE, nclients=1)
        many, clock_many, *_ = run_pool(Engine.BTREE, nclients=16)
        assert one.ops_issued == many.ops_issued
        assert many.run_seconds < one.run_seconds

    @pytest.mark.parametrize("engine", ENGINES)
    def test_out_of_space_reported_not_raised(self, engine):
        # A device filling up mid-flush must end a several-client run
        # as it ends a lone client's, not escape run_experiment as an
        # exception.
        spec = ExperimentSpec(
            engine=engine, capacity_bytes=24 * MIB, dataset_fraction=0.85,
            duration_capacity_writes=60.0, sample_interval=0.05, nclients=4,
        )
        result = run_experiment(spec)
        assert result.out_of_space
        assert result.ops_issued > 0

    def test_tail_latency_grows_with_depth(self):
        one, *_ = run_pool(Engine.LSM, nclients=1)
        many, *_ = run_pool(Engine.LSM, nclients=16)
        assert many.latencies.pooled_summary()["p99"] > \
            one.latencies.pooled_summary()["p99"]


class TestDeviceTiming:
    @pytest.mark.parametrize("overrides, channels", [
        (dict(), False),
        (dict(driver="pool"), False),
        (dict(nshards=2), False),
        (dict(nclients=4), True),
        (dict(arrival="poisson", arrival_rate=4000.0), True),
    ])
    def test_measured_phase_picks_the_timing_model(self, overrides, channels):
        """Concurrency — more than one client, or open-loop arrivals —
        runs every device on per-channel timing; one closed-loop client
        per store keeps the scalar horizon, whichever driver runs it."""
        spec = ExperimentSpec(engine=Engine.LSM, **{**FAST, "max_ops": 200},
                              **overrides)
        stack = build_stack(spec)
        workload = spec.workload()
        collector = MetricsCollector(stack, workload.dataset_bytes)
        load_sequential(stack.stores, stack.router, workload)
        stack.drain()
        collector.start_measurement()
        outcome = run_measured_phase(spec, stack, collector)
        assert outcome.ops_issued > 0
        assert [isinstance(shard.ssd._timeline, ChannelTimeline)
                for shard in stack.shards] == [channels] * spec.nshards


class TestReadHeavyBacklog:
    """Read traffic must not masquerade as write-cache pressure."""

    @pytest.fixture(autouse=True)
    def small_write_cache(self, monkeypatch):
        """Every shard's drive with a 256 KiB write cache."""
        shard_ssd = ExperimentSpec.shard_ssd
        monkeypatch.setattr(
            ExperimentSpec, "shard_ssd",
            lambda spec: replace(shard_ssd(spec), write_cache_bytes=256 * 1024))

    def run_measured_phase(self, max_ops: int, **workload):
        """Load, drain, snapshot fold count, then run 16 clients.

        The write-heavy load phase may legitimately fold on the small
        scaled cache; the measured phase is what the read-pollution bug
        poisoned, hence the post-load snapshot.  The cache is shrunk
        (``small_write_cache``) so that read service backlog dwarfs the
        drain window, the regime where the old accounting misfired.
        """
        spec, _clock, ssd, store = loaded_stack(
            Engine.LSM, nclients=16, ssd="ssd2", **workload)
        folds_after_load = ssd.smart.fold_events
        pool = FleetPool([store], LONE_ROUTER, spec.workload(), nclients=16,
                         seed=7, max_ops=max_ops)
        outcome = pool.run()
        return outcome, store, ssd.smart.fold_events - folds_after_load

    def test_read_heavy_16_clients_on_ssd2_never_pays_fold_penalty(self):
        """A 16-client 90%-read (gets + long scans) measured phase on
        the QLC drive keeps the channels saturated with read service
        time well past the cache drain window, but the SLC fold penalty
        — triggered by *write* backlog — must never fire (it used to,
        because read service time leaked into ``backlog_seconds``)."""
        outcome, store, measured_folds = self.run_measured_phase(
            max_ops=FAST["max_ops"],
            read_fraction=0.5, scan_fraction=0.4, scan_length=400,
        )
        assert outcome.ops_issued == FAST["max_ops"]
        assert not outcome.out_of_space
        assert store.stats.scans > 0  # the scan path really ran at depth
        assert measured_folds == 0

    def test_write_heavy_clients_on_ssd2_do_pay_fold_penalty(self):
        """Control: update-only traffic at the same depth keeps the fold
        mechanism alive — bursty flush/compaction writes overwhelm the
        scaled cache."""
        _outcome, _store, measured_folds = self.run_measured_phase(
            max_ops=20_000, read_fraction=0.0)
        assert measured_folds > 0


class TestValidation:
    def test_nclients_validated(self):
        _spec, _clock, ssd, store = loaded_stack(Engine.LSM)
        with pytest.raises(ConfigError):
            FleetPool([store], LONE_ROUTER, _spec.workload(), nclients=0)

    def test_sampling_args_fail_fast(self):
        spec, _clock, _ssd, store = loaded_stack(Engine.LSM)
        with pytest.raises(ConfigError):
            FleetPool([store], LONE_ROUTER, spec.workload(), nclients=2,
                      sample_interval=0.1)
        with pytest.raises(ConfigError):
            FleetPool([store], LONE_ROUTER, spec.workload(), nclients=2,
                      on_sample=lambda: None)

    def test_spec_nclients_validated(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(nclients=0)
