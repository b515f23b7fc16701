"""Fleet experiments: equivalence, open-loop behavior, determinism.

Three contracts pin the fleet subsystem (DESIGN.md §10.4):

1. *Seed compatibility*: ``nshards=1`` without an arrival process
   reports no fleet block, and the one-shard router's whole-run answer
   drives the store op for op like a router asked key by key.
2. *Accounting*: open-loop offered = admitted + rejected, globally
   and per shard, and admission never exceeds the queue cap.
3. *Determinism*: the same spec reproduces the same fleet summary,
   clock and SMART counters, bit for bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.experiment import (
    Engine,
    ExperimentSpec,
    build_stack,
    run_experiment,
)
from repro.fleet.pool import FleetPool
from repro.fleet.router import RangeRouter
from repro.sim.scheduler import Task
from repro.units import MIB
from repro.workload.runner import load_sequential

#: Small but real: flush/compaction/GC paths exercised in
#: milliseconds.  The write budget is generous so max_ops decides run
#: length deterministically.
FAST = dict(
    capacity_bytes=24 * MIB,
    dataset_fraction=0.3,
    duration_capacity_writes=50.0,
    sample_interval=0.05,
    max_ops=2500,
)

ENGINES = (Engine.LSM, Engine.BTREE)


class TestSeedCompatibility:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_shard_closed_loop_stays_on_legacy_path(self, engine):
        result = run_experiment(ExperimentSpec(engine=engine, **FAST))
        assert result.fleet is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_shard_fleet_matches_legacy_run(self, engine):
        """The one-shard router hands the load and the lone client whole
        runs without asking a key; over an identical second stack, a
        router that claims two shards (so ``shard_run`` asks every key)
        and answers shard 0 must coincide with it in load order, op
        stream and timing — checked through the clock, every latency
        and the whole counter snapshot (engine counters included).
        """

        class EveryKeyAsked(RangeRouter):
            def shard_for(self, key: int) -> int:
                asked.append(key)
                return 0

        asked: list[int] = []
        spec = ExperimentSpec(engine=engine, **FAST)
        bare, fleet = build_stack(spec), build_stack(spec)
        outcomes = []
        for stack, router in ((bare, bare.router),
                              (fleet, EveryKeyAsked(2, spec.nkeys))):
            load = load_sequential(stack.stores, router, spec.workload())
            stack.drain()
            run = FleetPool(stack.stores, router, spec.workload(),
                            seed=spec.seed, max_ops=spec.max_ops).run()
            outcomes.append((load, run.ops_issued, run.latencies.series(0).tolist()))
        assert len(asked) >= spec.nkeys + FAST["max_ops"]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == FAST["max_ops"]
        assert fleet.clock.now == bare.clock.now
        assert fleet.snapshot() == bare.snapshot()


def test_fleet_drain_reports_how_far_the_shared_clock_moved():
    """Every shard's ``drain()`` advances the one clock, so a shard
    drained after a busier one has nothing left to report: the fleet's
    wait is the clock's movement, whichever order the backlogs come in
    (the max of the per-shard reports is right only when shards happen
    to be sorted by backlog)."""
    for small, large in ((0, 1), (1, 0)):
        stack = build_stack(ExperimentSpec(nshards=2, capacity_bytes=48 * MIB))
        clock, ssds = stack.clock, [shard.ssd for shard in stack.shards]
        ssds[small].write_runs([0], [64], background=True)
        ssds[large].write_runs([0], [2048], background=True)
        backlogs = [ssd.backlog_seconds() for ssd in ssds]
        assert 0.0 < backlogs[small] < backlogs[large]
        start = clock.now
        assert stack.drain() == clock.now - start
        assert clock.now - start == pytest.approx(backlogs[large])
        assert all(ssd.backlog_seconds() == 0.0 for ssd in ssds)


def open_loop_spec(engine=Engine.LSM, **overrides) -> ExperimentSpec:
    params = dict(
        engine=engine,
        arrival="poisson",
        arrival_rate=8000.0,
        nshards=2,
        queue_cap=16,
        **FAST,
    )
    params.update(overrides)
    return ExperimentSpec(**params)


class TestOpenLoop:
    def test_offered_splits_into_admitted_plus_rejected(self):
        fleet = run_experiment(open_loop_spec()).fleet
        assert fleet["offered"] == fleet["admitted"] + fleet["rejected"]
        assert fleet["offered"] == FAST["max_ops"]  # max_ops bounds offered
        for key in ("offered", "admitted", "rejected"):
            assert sum(row[key] for row in fleet["per_shard"]) == fleet[key]
        assert sum(row["ops"] for row in fleet["per_shard"]) == \
            fleet["completed"]

    def test_overload_rejects_instead_of_failing(self):
        # 10x the saturation rate against a queue cap of 4: admission
        # control must shed load, and the shed shows up in the SLO
        # attainment denominator.
        fleet = run_experiment(
            open_loop_spec(arrival_rate=200_000.0, queue_cap=4)
        ).fleet
        assert fleet["rejected"] > 0
        assert all(row["qdepth_max"] <= 4 for row in fleet["per_shard"])
        assert fleet["slo_attainment"] < fleet["completed"] / fleet["offered"] \
            + 1e-12

    def test_rate_controls_offered_load(self):
        slow = run_experiment(
            open_loop_spec(arrival_rate=1000.0, max_ops=800)).fleet
        fast = run_experiment(
            open_loop_spec(arrival_rate=16_000.0, max_ops=800)).fleet
        assert slow["offered_rate"] == pytest.approx(1000.0, rel=0.2)
        assert fast["offered_rate"] > slow["offered_rate"] * 4

    def test_determinism(self):
        a = run_experiment(open_loop_spec())
        b = run_experiment(open_loop_spec())
        assert a.fleet == b.fleet
        assert a.smart == b.smart
        assert a.run_seconds == b.run_seconds

    @pytest.mark.parametrize("router", ("hash", "range"))
    def test_both_routers_spread_load(self, router):
        fleet = run_experiment(open_loop_spec(router=router)).fleet
        ops = [row["ops"] for row in fleet["per_shard"]]
        assert len(ops) == 2
        assert min(ops) > 0

    def test_one_server_task_per_shard(self, monkeypatch):
        # Each shard's server lives for the whole run: it parks when its
        # queue drains and the next admission wakes it, so busy periods
        # come and go without a Task being built for each.
        labels = Counter()
        init = Task.__init__

        def counting_init(self, scheduler, gen, label):
            labels[label] += 1
            init(self, scheduler, gen, label)

        monkeypatch.setattr(Task, "__init__", counting_init)
        fleet = run_experiment(open_loop_spec(arrival_rate=2000.0)).fleet
        served = [i for i, row in enumerate(fleet["per_shard"]) if row["ops"]]
        assert served == [0, 1]
        assert fleet["completed"] > 100 * len(served)  # many busy periods
        assert [labels[f"shard{i}"] for i in served] == [1] * len(served)

    def test_closed_loop_multi_shard(self):
        result = run_experiment(
            ExperimentSpec(engine=Engine.LSM, nshards=2, nclients=4,
                           driver="pool", **FAST))
        fleet = result.fleet
        assert fleet is not None
        assert fleet["arrival"] is None
        assert fleet["offered"] == fleet["completed"] == result.ops_issued
        assert sum(row["ops"] for row in fleet["per_shard"]) == \
            result.ops_issued


class TestLoadOutOfSpace:
    """A load that runs out of space leaves no measured phase: its fleet
    block counts no traffic and keeps the shape of one that ran."""

    @pytest.mark.parametrize("source", [
        dict(arrival="poisson", arrival_rate=20_000.0),
        dict(nclients=4),
    ], ids=["open-loop", "closed-loop"])
    def test_fleet_block_counts_no_measured_traffic(self, source):
        spec = ExperimentSpec(engine=Engine.BTREE, capacity_bytes=24 * MIB,
                              dataset_fraction=0.7, nshards=2, **source)
        result = run_experiment(spec)
        assert result.out_of_space and result.run_seconds == 0
        assert 0 < result.ops_issued < spec.nkeys  # the load's puts
        fleet = result.fleet
        assert fleet["offered"] == fleet["admitted"] == fleet["completed"] == 0
        assert [row["ops"] for row in fleet["per_shard"]] == [0, 0]
        ran = run_experiment(replace(spec, dataset_fraction=0.3, max_ops=200))
        assert not ran.out_of_space and ran.fleet["completed"]
        assert fleet.keys() == ran.fleet.keys()
        assert [row.keys() for row in fleet["per_shard"]] == \
            [row.keys() for row in ran.fleet["per_shard"]]


class TestValidation:
    def test_nshards_bound(self):
        with pytest.raises(Exception, match="nshards"):
            ExperimentSpec(nshards=0, **FAST)

    def test_unknown_router(self):
        with pytest.raises(Exception, match="router"):
            ExperimentSpec(nshards=2, router="round-robin", **FAST)

    def test_arrival_needs_positive_rate(self):
        with pytest.raises(Exception, match="rate must be > 0"):
            ExperimentSpec(arrival="poisson", arrival_rate=0.0, **FAST)

    def test_rate_needs_arrival(self):
        with pytest.raises(Exception, match="arrival_rate requires"):
            ExperimentSpec(arrival_rate=100.0, **FAST)

    def test_unknown_arrival(self):
        with pytest.raises(Exception, match="unknown arrival"):
            ExperimentSpec(arrival="pareto", arrival_rate=100.0, **FAST)

    def test_open_loop_excludes_clients(self):
        with pytest.raises(Exception, match="nclients must be 1"):
            ExperimentSpec(arrival="poisson", arrival_rate=100.0,
                           nclients=4, **FAST)

    def test_queue_cap_bound(self):
        with pytest.raises(Exception, match="queue_cap"):
            ExperimentSpec(queue_cap=0, **FAST)

    def test_slo_bound(self):
        with pytest.raises(Exception, match="slo_ms"):
            ExperimentSpec(slo_ms=0.0, **FAST)


class TestFleetSmokeFingerprint:
    """A tiny 2-shard open-loop run with its sim outcome pinned.

    Mirrors the bench harness's sim-fingerprint idea (DESIGN.md §6):
    virtual-clock end time and device byte counters identify the
    simulated timeline exactly, so any unintended change to routing,
    arrival draws or shard service order fails loudly.  If a change
    is *intended*, re-pin by running
    ``tests/fleet/test_fleet.py::TestFleetSmokeFingerprint`` with
    ``--pin`` semantics: print the new values and update PINNED.
    """

    SPEC = dict(
        engine=Engine.LSM,
        capacity_bytes=24 * MIB,
        dataset_fraction=0.3,
        duration_capacity_writes=50.0,
        sample_interval=0.05,
        max_ops=600,
        nshards=2,
        arrival="poisson",
        arrival_rate=4000.0,
        queue_cap=16,
        seed=0xD1D0,
    )

    def test_pinned_fingerprint(self):
        result = run_experiment(ExperimentSpec(**self.SPEC))
        fleet = result.fleet
        fingerprint = {
            "offered": fleet["offered"],
            "admitted": fleet["admitted"],
            "rejected": fleet["rejected"],
            "completed": fleet["completed"],
            "ops_per_shard": [row["ops"] for row in fleet["per_shard"]],
            "host_bytes_written": result.smart["host_bytes_written"],
            "nand_bytes_written": result.smart["nand_bytes_written"],
            "run_seconds": result.run_seconds,
        }
        assert fingerprint == PINNED


#: Regenerate by printing the fingerprint above after a deliberate
#: behaviour change (see class docstring).
PINNED = {
    "offered": 600,
    "admitted": 600,
    "rejected": 0,
    "completed": 600,
    "ops_per_shard": [308, 292],
    "host_bytes_written": 19927040,
    "nand_bytes_written": 19927040,
    "run_seconds": 0.14555160199528067,
}
