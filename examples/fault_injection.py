#!/usr/bin/env python3
"""Fault injection walkthrough: flaky flash, a crash, and a chaos run.

Three escalating demos of the fault subsystem (DESIGN.md §11):

1. Device tier — install a `FaultPlan` on a bare SSD and watch the
   SMART counters attribute every injected read error, program
   failure, latency spike, and grown bad block.
2. Engine tier — crash an LSM store mid-write and recover it,
   checking the durable keys against a never-crashed oracle.
3. Fleet tier — a 2-shard open-loop experiment with injected faults
   and a mid-run shard kill: availability, error-budget burn, retry
   amplification, and per-shard recovery time.

Run:  PYTHONPATH=src python examples/fault_injection.py
"""

from repro import rng as rng_mod
from repro.block import BlockDevice
from repro.core import VirtualClock
from repro.core.experiment import Engine, ExperimentSpec, run_experiment
from repro.errors import ProgramFaultError
from repro.faults import FaultPlan, RetryPolicy
from repro.flash import SSD, get_profile
from repro.fs import ExtentFilesystem
from repro.kv import value_for
from repro.lsm import LSMConfig, LSMStore
from repro.units import MIB

SEED = 7


def demo_device():
    print("=== 1. flaky flash: a FaultPlan on a bare SSD ===")
    clock = VirtualClock()
    ssd = SSD(get_profile("ssd1", capacity_bytes=16 * MIB), clock)
    ssd.faults = FaultPlan(
        {"read": 0.10, "program": 0.05, "latency": 0.05,
         "latency_ms": 2.0, "bad_block": 0.05},
        rng_mod.substream(SEED, "faults"),
    )
    failed = 0
    for i in range(200):
        try:
            ssd.write_runs([(i * 8) % 2048], [8])
        except ProgramFaultError:
            failed += 1
        ssd.read_runs([(i * 8) % 2048], [8])
    smart = ssd.smart
    print(f"200 writes ({failed} failed) + 200 reads:")
    print(f"  media errors      {smart.media_errors}")
    print(f"  program failures  {smart.program_failures}")
    print(f"  latency spikes    {smart.latency_spikes}")
    print(f"  realloc'd blocks  {smart.realloc_blocks}")

    # The block layer's retry budget turns those raises into latency.
    clock = VirtualClock()
    ssd = SSD(get_profile("ssd1", capacity_bytes=16 * MIB), clock)
    ssd.faults = FaultPlan({"program": 0.2},
                           rng_mod.substream(SEED, "faults"))
    device = BlockDevice(ssd)
    device.retry = RetryPolicy(8, 0.0005)
    fs = ExtentFilesystem(device)
    fs.create("f")
    total = sum(fs.append("f", 4096) for _ in range(50))
    print(f"50 retried file writes: {ssd.smart.program_failures} faults "
          f"absorbed, {total * 1e3:.2f} ms total virtual latency")
    print()


def make_lsm():
    clock = VirtualClock()
    ssd = SSD(get_profile("ssd1", capacity_bytes=16 * MIB), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    # A small WAL write-out buffer so the crash severs a short tail.
    return LSMStore(fs, clock, LSMConfig(wal_buffer_bytes=4096))


def demo_crash_recovery():
    print("=== 2. crash and recover: durable keys vs an oracle ===")
    oracle, target = make_lsm(), make_lsm()
    target.enable_crash_tracking()
    for store in (oracle, target):
        for key in range(500):
            store.put(key, value_for(key, 0, 256))
    latency, lost = target.crash_and_recover()
    print(f"crash after 500 puts: recovery took {latency * 1e3:.2f} ms "
          f"(virtual), lost {len(lost)} un-synced WAL-tail key(s)")
    diverged = sum(
        1 for key in range(500)
        if target.get(key)[1] != oracle.get(key)[1]
    )
    print(f"keys diverging from the never-crashed oracle: {diverged} "
          f"(exactly the lost set: {diverged == len(lost)})")
    print()


def demo_chaos_fleet():
    print("=== 3. chaos fleet: 2 shards, faults, a mid-run kill ===")
    spec = ExperimentSpec(
        engine=Engine.LSM,
        capacity_bytes=24 * MIB,
        dataset_fraction=0.35,
        duration_capacity_writes=1.5,
        max_ops=6_000,
        read_fraction=0.25,
        nshards=2,
        arrival="poisson",
        arrival_rate=4000.0,
        queue_cap=16,
        slo_ms=5.0,
        op_timeout_ms=50.0,
        faults={"read": 0.05, "program": 0.02, "latency": 0.05,
                "read_penalty_ms": 2.0},
        kill_at=0.05,
        kill_shard=1,
        seed=SEED,
    )
    fleet = run_experiment(spec).fleet
    print(f"availability        {fleet['availability'] * 100:.2f}%")
    print(f"error-budget burn   {fleet['error_budget_burn']:.1f}x of 0.1%")
    print(f"retry amplification {fleet['retry_amplification']:.3f}x")
    print(f"failed/timeouts     {fleet['failed']}/{fleet['timeouts']}")
    print(f"lost keys           {fleet['lost_keys']}")
    for row in fleet["per_shard"]:
        print(f"shard {row['shard']}: health={row['health']} "
              f"recovery={row['recovery_seconds'] * 1e3:.2f} ms "
              f"downtime={row['downtime_seconds'] * 1e3:.2f} ms "
              f"retries={row['retries']}")


def main():
    demo_device()
    demo_crash_recovery()
    demo_chaos_fleet()


if __name__ == "__main__":
    main()
