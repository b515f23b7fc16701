"""Conservation laws across layers, read off the counter snapshots.

Each law is a pure function of ``Stack.snapshot()`` dicts (DESIGN.md
§10.5).  They are evaluated at **every sample** — ``MetricsCollector.
sample`` is wrapped on the class, the seam the perf ledger uses — and
once more at the end of the run, for ten of the golden specs, Fig 2's
LSM cell at the small figure scale and an open-loop run with a shard
kill on either engine.  Every law below was seen to fail under a
one-line mutation of the counter it reads (CHANGES.md, PRs 21, 22
and 24).

The exposed range is a law of the same kind: under software
over-provisioning no layer ever touches a page of the reserved tail.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import Engine, ExperimentSpec, run_experiment
from repro.core.figures import SMALL, spec_for
from repro.core.metrics import MetricsCollector, ops_in
from repro.counters import sum_counters
from repro.errors import OutOfRangeError
from repro.flash.state import DriveState
from repro.units import MIB
from tests.core.test_golden_fingerprints import FAST, OP25, SPECS

#: The snapshot entries that may fall: space in use right now.
GAUGES = {"fs.used_pages", "fs.used_bytes"}

KILL = dict(
    capacity_bytes=24 * MIB, dataset_fraction=0.3,
    duration_capacity_writes=50.0, sample_interval=0.05, max_ops=2500,
    arrival="poisson", arrival_rate=8000.0, nshards=2, queue_cap=16,
    read_fraction=0.3, kill_at=0.05, kill_shard=1,
)

RUNS = {name: SPECS[name] for name in (
    "closed-loop-lsm", "closed-loop-btree", "pooled-lsm", "pool16-btree",
    "fleet-2shard-lsm", "out-of-space-pool4-lsm",
    # Reads: batched gets, the leaf walk, every op kind pooled, and
    # retried writes beside fault-delayed reads.
    "read-only-lsm", "scan-mix-btree", "pool4-mixed-lsm",
    "faults-pool4-btree")} | {
    # Its first window opens where the load phase's last writes land.
    "fig2-small-lsm": spec_for(SMALL, Engine.LSM).to_dict()} | {
    f"open-loop-kill-{engine.value}": dict(engine=engine, **KILL)
    for engine in (Engine.LSM, Engine.BTREE)}


# ----------------------------------------------------------------------
# The laws
# ----------------------------------------------------------------------
def nand_is_host_plus_relocated(snap: dict) -> bool:
    """Every flash page programmed is a host write or a GC relocation."""
    return snap["flash.nand_bytes_written"] == (
        snap["flash.host_bytes_written"] + snap["flash.gc_bytes_relocated"])


def block_matches_flash(earlier: dict, later: dict) -> bool:
    """What the block layer saw go by is what the device counted, in
    both directions (drive preconditioning writes below the block layer,
    so the law is over an interval, not since power-on)."""
    return all(
        later[f"flash.host_bytes_{verb}"] - earlier[f"flash.host_bytes_{verb}"]
        == later[f"block.bytes_{verb}"] - earlier[f"block.bytes_{verb}"]
        for verb in ("written", "read"))


def monotone(earlier: dict, later: dict) -> list[str]:
    """The counters that fell between two snapshots (expected: none)."""
    return [key for key in later
            if key not in GAUGES and later[key] < earlier[key]]


def shards_sum_to_fleet(fleet: dict, shards: list[dict]) -> bool:
    """The fleet's counters are the field-for-field sum of its shards',
    every layer's."""
    return fleet == {key: sum(shard[key] for shard in shards)
                     for key in shards[0]}


def windows_sum_to_block_bytes(samples, earlier: dict, later: dict) -> bool:
    """Device MB/s is a delta of the block layer's counters: the
    windows of a run tile the span its samples cover, so rate × window
    summed over the samples is every byte the device was sent between
    the snapshot at the start of the measurement and the one at the
    last sample — none from the load phase, none dropped at the tail."""
    moved = {"written": 0.0, "read": 0.0}
    opened = 0.0
    for point in samples:
        moved["written"] += point.dev_write_mbps * 1e6 * (point.t - opened)
        moved["read"] += point.dev_read_mbps * 1e6 * (point.t - opened)
        opened = point.t
    return all(
        moved[verb] == pytest.approx(
            later[f"block.bytes_{verb}"] - earlier[f"block.bytes_{verb}"],
            rel=1e-9)
        for verb in moved)


def kv_ops_are_issued_plus_loaded(result) -> bool:
    """The engines served the sequential load plus every op the driver
    counted (an op cut short by ENOSPC is counted by neither side the
    same way, so a full device is exempt)."""
    return result.out_of_space or (
        ops_in(result.counters) == result.ops_issued + result.spec.nkeys)


def check(earlier: list[dict], later: list[dict], fleet: dict) -> None:
    """The laws between two lists of per-shard snapshots; *fleet* is
    what the stack reported where *later* was taken."""
    assert shards_sum_to_fleet(fleet, later)
    assert nand_is_host_plus_relocated(fleet)
    for before, after in zip(earlier, later, strict=True):  # each device
        assert block_matches_flash(before, after)
    assert monotone(sum_counters(earlier), fleet) == []


# ----------------------------------------------------------------------
# Evaluated at every sample and at the end of the run
# ----------------------------------------------------------------------
@pytest.fixture
def watched(monkeypatch):
    """Check the laws between every two consecutive sampling points."""
    seen = []
    start, sample = MetricsCollector.start_measurement, MetricsCollector.sample

    def checked_start(self):
        start(self)
        seen[:] = [(self.stack, self.stack.shard_snapshots())]

    def checked_sample(self):
        point = sample(self)
        shards = self.stack.shard_snapshots()
        check(seen[-1][1], shards, self.stack.snapshot())
        seen.append((self.stack, shards))
        return point

    monkeypatch.setattr(MetricsCollector, "start_measurement", checked_start)
    monkeypatch.setattr(MetricsCollector, "sample", checked_sample)
    return seen


@pytest.mark.parametrize("name", list(RUNS))
def test_laws_hold_at_every_sample_and_at_the_end(name, watched):
    result = run_experiment(ExperimentSpec(**RUNS[name]))
    assert len(watched) == len(result.samples) + 1
    stack, last = watched[-1]
    first = watched[0][1]
    final = {key: value for key, value in result.counters.items()
             if not key.startswith("fleet.")}
    check(last, stack.shard_snapshots(), final)
    check(first, stack.shard_snapshots(), final)  # the whole measured phase
    assert windows_sum_to_block_bytes(
        result.samples, sum_counters(first), sum_counters(last))
    assert kv_ops_are_issued_plus_loaded(result)
    if name.startswith("out-of-space"):
        assert result.out_of_space
    if result.spec.arrival is not None:
        # The open-loop totals ride in the same snapshot.
        assert result.counters["fleet.completed"] == result.ops_issued
        assert result.counters["fleet.offered"] == result.fleet["offered"]
        assert result.counters["fleet.recovery_seconds"] > 0.0


@pytest.mark.parametrize("state", list(DriveState))
@pytest.mark.parametrize("engine", list(Engine))
def test_the_reserved_range_is_never_touched(engine, state, watched):
    """Software over-provisioning (§4.6): the filesystem is shown 75 %
    of the drive, and neither aging, the load, the run nor a direct
    request puts a page of the other 25 % anywhere."""
    result = run_experiment(ExperimentSpec(
        engine=engine, drive_state=state, trace_lba=True, **OP25, **FAST))
    stack = watched[-1][0]
    (shard,) = stack.shards
    ssd, device, trace = shard.ssd, shard.device, shard.trace
    exposed = device.npages
    assert exposed == int(ssd.npages * 0.75)
    assert shard.fs.counters()["fs.npages"] == exposed
    # blktrace spans the drive, so the reserved tail counts as never
    # written; the FTL (aged below the block layer) maps none of it.
    assert result.lba_histogram.size == ssd.npages
    assert result.lba_histogram[:exposed].any()
    assert not result.lba_histogram[exposed:].any()
    assert not trace.read_histogram[exposed:].any()
    assert result.lba_never_written >= 0.25
    l2p = ssd.ftl.state_arrays()[0]
    assert (l2p[exposed:] < 0).all()
    if state is DriveState.PRECONDITIONED:
        assert (l2p[:exposed] >= 0).all()

    def observed():
        return (stack.snapshot(), trace.histogram.tolist(),
                trace.read_histogram.tolist(), trace.total_write_requests,
                trace.total_read_requests, stack.clock.now)

    before = observed()
    for refused in (
            lambda: device.write_range(exposed - 1, 2),
            lambda: device.write_pages(np.array([0, exposed])),
            lambda: device.read_range(exposed, 1),
            lambda: device.read_ranges([exposed - 1], [2]),
            lambda: device.trim_range(exposed - 1, 2)):
        with pytest.raises(OutOfRangeError):
            refused()
    assert observed() == before
    device.write_range(exposed - 1, 1)  # the last exposed page is served
    assert observed() != before


def test_snapshot_names_every_layer():
    """One read returns device, block, filesystem, KV and engine-internal
    counters under ``layer.name`` keys; the views of a result are cut
    from it."""
    result = run_experiment(ExperimentSpec(**SPECS["fleet-2shard-lsm"]))
    layers = {key.split(".")[0] for key in result.counters}
    assert layers == {"flash", "block", "fs", "kv", "lsm"}
    assert result.counters["lsm.compactions"] > 0
    assert result.smart["gc_pages_moved"] == \
        result.counters["flash.gc_pages_moved"]
    assert sum(result.kv_ops.values()) == ops_in(result.counters)
    btree = run_experiment(ExperimentSpec(**SPECS["closed-loop-btree"]))
    assert btree.counters["btree.cache_misses"] > 0
    assert "counters" not in btree.to_dict()
