"""Fleet-tier chaos: shard kills, lazy recovery, retries, timeouts.

End-to-end through :func:`run_experiment` so the whole dispatch chain
(spec → fleet stack → FleetPool → summary) is exercised, at the same
FAST scale as the fleet suite.
"""

from __future__ import annotations

import pytest

import repro.fleet.pool as pool_mod
from repro.core.experiment import Engine, ExperimentSpec, run_experiment
from repro.errors import TransientDeviceError
from repro.units import MIB

FAST = dict(
    capacity_bytes=24 * MIB,
    dataset_fraction=0.3,
    duration_capacity_writes=50.0,
    sample_interval=0.05,
    max_ops=2500,
)

ENGINES = (Engine.LSM, Engine.BTREE)


def chaos_spec(engine=Engine.LSM, **overrides) -> ExperimentSpec:
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


class TestShardKill:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_kill_recovers_end_to_end(self, engine):
        fleet = run_experiment(
            chaos_spec(engine=engine, kill_at=0.05, kill_shard=1)
        ).fleet
        row = fleet["per_shard"][1]
        # The shard went down, was noticed by traffic, repaired, and
        # came back: recovery time and downtime are on the record.
        assert row["recovery_seconds"] > 0.0
        assert row["downtime_seconds"] >= row["recovery_seconds"]
        assert row["health"] == "up"
        assert fleet["retries"] > 0 or fleet["failed"] > 0
        assert fleet["retry_amplification"] >= 1.0
        # The untouched shard never left "up" and never recovered.
        assert fleet["per_shard"][0]["recovery_seconds"] == 0.0
        assert fleet["per_shard"][0]["health"] == "up"

    def test_chaos_run_is_deterministic(self):
        spec = chaos_spec(kill_at=0.05, kill_shard=1, op_timeout_ms=20.0,
                          faults={"read": 0.02, "program": 0.01,
                                  "latency": 0.02})
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert a.fleet == b.fleet
        assert a.smart == b.smart
        assert a.run_seconds == b.run_seconds

    def test_availability_accounts_for_killed_ops(self):
        fleet = run_experiment(chaos_spec(kill_at=0.05, kill_shard=0)).fleet
        assert 0.0 < fleet["availability"] <= 1.0
        assert fleet["availability"] == \
            fleet["completed"] / fleet["offered"]
        assert fleet["error_budget_burn"] == pytest.approx(
            (1.0 - fleet["availability"]) / (1.0 - 0.999))

    def test_no_chaos_run_has_clean_counters(self):
        fleet = run_experiment(chaos_spec()).fleet
        assert fleet["failed"] == 0
        assert fleet["timeouts"] == 0
        assert fleet["retries"] == 0
        assert fleet["lost_keys"] == 0
        assert fleet["retry_amplification"] == 1.0
        assert all(row["health"] == "up" for row in fleet["per_shard"])
        assert all(row["recovery_seconds"] == 0.0
                   for row in fleet["per_shard"])


class TestOutcomePartition:
    """Every offered op ends in exactly one of rejected / completed /
    failed / timed-out / still in flight when the run stopped."""

    @pytest.mark.parametrize("kill_at", (None, 0.05))
    @pytest.mark.parametrize("seed", range(10))
    def test_offered_ops_are_partitioned(self, seed, kill_at):
        # Past saturation, with a deadline, so every outcome occurs.
        spec = chaos_spec(seed=seed, kill_at=kill_at, arrival_rate=24_000.0,
                          op_timeout_ms=4.0)
        fleet = run_experiment(spec).fleet
        in_flight = (fleet["offered"] - fleet["rejected"] - fleet["completed"]
                     - fleet["failed"] - fleet["timeouts"])
        assert 0 <= in_flight <= spec.nshards * spec.queue_cap
        # An op budget stops the source only: queues drain and retries
        # resolve before the run returns, so here nothing is in flight.
        assert fleet["offered"] == spec.max_ops and in_flight == 0
        # ``failed`` counts ops bounced off the down shard whose retries
        # ran out without ever being admitted, so admitted + rejected
        # may fall short of offered; it can never exceed it.
        assert fleet["completed"] + fleet["timeouts"] <= fleet["admitted"] \
            <= fleet["offered"] - fleet["rejected"]
        for key in ("offered", "admitted", "rejected", "failed", "timeouts",
                    "retries"):
            assert sum(row[key] for row in fleet["per_shard"]) == fleet[key]
        assert sum(row["ops"] for row in fleet["per_shard"]) == \
            fleet["completed"]

    def test_offered_is_not_admitted_plus_rejected_under_a_kill(self):
        fleet = run_experiment(chaos_spec(
            seed=3, kill_at=0.05, arrival_rate=24_000.0, op_timeout_ms=4.0)).fleet
        assert fleet["offered"] > fleet["admitted"] + fleet["rejected"]


class TestOpTimeout:
    def test_aged_ops_are_dropped_not_served(self):
        # Saturating load + a deadline shorter than the queueing delay
        # at depth: some admitted ops must age out.
        fleet = run_experiment(
            chaos_spec(engine=Engine.BTREE, arrival_rate=32000.0,
                       op_timeout_ms=2.0)
        ).fleet
        assert fleet["timeouts"] > 0
        assert fleet["completed"] + fleet["timeouts"] <= fleet["admitted"]
        assert sum(row["timeouts"] for row in fleet["per_shard"]) == \
            fleet["timeouts"]


class TestDeviceErrorsThroughFleet:
    def test_retry_exhausted_op_fails_without_killing_run(self, monkeypatch):
        original = pool_mod.apply_op
        state = {"left": 5}

        def flaky(store, spec, kind, key, version):
            if state["left"] > 0:
                state["left"] -= 1
                raise TransientDeviceError("injected by test")
            return original(store, spec, kind, key, version)

        monkeypatch.setattr(pool_mod, "apply_op", flaky)
        result = run_experiment(chaos_spec())
        fleet = result.fleet
        assert not result.out_of_space
        assert fleet["failed"] == 5
        assert sum(row["failed"] for row in fleet["per_shard"]) == 5
        assert fleet["availability"] < 1.0

    def test_injected_faults_absorbed_by_engine_retries(self):
        # Program faults at a rate the default retry budget absorbs:
        # the run completes, SMART shows the faults, nothing fails.
        result = run_experiment(chaos_spec(faults={"program": 0.01}))
        assert not result.out_of_space
        assert result.smart["program_failures"] > 0
        assert result.fleet["failed"] == 0


class TestNoSpaceThroughFleet:
    def test_ops_done_partial_accounting(self):
        # A dataset the sharded device cannot hold: the load phase
        # dies mid-batch, and the partial ops of the failing batch
        # (NoSpaceError.ops_done, accumulated across shards) must
        # still be counted instead of rounding down to zero.
        result = run_experiment(
            chaos_spec(dataset_fraction=0.98, max_ops=100)
        )
        assert result.out_of_space
        spec = chaos_spec(dataset_fraction=0.98, max_ops=100)
        assert 0 < result.ops_issued < spec.nkeys
