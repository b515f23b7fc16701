"""The assembled system: :func:`build_stack` is the one route from a
spec to running objects, :meth:`Stack.snapshot` the one read of what
they counted (DESIGN.md §10.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any

from repro import rng as rng_mod
from repro.block.device import BlockDevice
from repro.btree.config import BTreeConfig
from repro.btree.store import BTreeStore
from repro.core.clock import VirtualClock
from repro.counters import sum_counters
from repro.faults import FaultPlan, RetryPolicy
from repro.flash.ssd import SSD
from repro.flash.state import apply_drive_state
from repro.fleet.router import Router, make_router
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.api import KVStore
from repro.lsm.config import LSMConfig
from repro.lsm.store import LSMStore

if TYPE_CHECKING:
    from repro.core.experiment import ExperimentSpec


class Engine(str, Enum):
    """Which persistent tree structure to benchmark."""

    LSM = "lsm"
    BTREE = "btree"


@dataclass
class Shard:
    """One device stack: SSD, block device, filesystem, engine."""

    ssd: SSD
    device: BlockDevice
    fs: ExtentFilesystem
    store: KVStore

    def snapshot(self) -> dict[str, Any]:
        """This shard's counters, every layer, as one labelled dict."""
        return {**self.ssd.smart.labelled(), **self.device.counters(),
                **self.fs.counters(), **self.store.counters()}


@dataclass
class Stack:
    """N shard stacks on one clock, and the router that says which
    shard owns a key (one shard owns them all)."""

    clock: VirtualClock
    shards: list[Shard]
    router: Router

    @property
    def stores(self) -> list[KVStore]:
        """Each shard's engine, in shard order: what the load phase and
        the driver are handed, beside :attr:`router`."""
        return [shard.store for shard in self.shards]

    def snapshot(self) -> dict[str, Any]:
        """Every counter as one flat ``layer.name`` dict: the sum over
        :meth:`shard_snapshots`."""
        return sum_counters(self.shard_snapshots())

    def shard_snapshots(self) -> list[dict[str, Any]]:
        """The per-shard dicts :meth:`snapshot` sums."""
        return [shard.snapshot() for shard in self.shards]

    def enable_channel_timing(self) -> None:
        """Switch every shard's device to per-channel timing."""
        for shard in self.shards:
            shard.ssd.enable_channel_timing()

    def drain(self) -> float:
        """Advance the shared clock until every shard is idle; returns
        the wait.  Each shard's ``drain`` moves the one clock, so a
        later shard reports only what was left after the earlier ones
        had waited — the wait is how far the clock moved, not the
        largest single report."""
        start = self.clock.now
        for shard in self.shards:
            shard.ssd.drain()
        return self.clock.now - start


def build_stack(spec: ExperimentSpec) -> Stack:
    """Assemble the stack a spec describes, every drive in its initial
    state.

    Each shard owns 1/nshards of the device budget as its own SSD +
    filesystem + engine instance (independent channels and GC, per Roh
    et al.'s internal-parallelism observation), aged from a per-shard
    seed, behind the spec's router.
    """
    clock = VirtualClock()
    profile = spec.shard_ssd()
    shards = [_build_shard(spec, profile, _shard_seed(spec.seed, index), clock)
              for index in range(spec.nshards)]
    if spec.kill_at is not None:
        # The victim shard records per-key WAL/journal positions so the
        # crash can compute exactly which writes the lost buffers held.
        shards[spec.kill_shard].store.enable_crash_tracking()
    return Stack(clock, shards,
                 make_router(spec.router, spec.nshards, spec.nkeys))


def _build_shard(spec: ExperimentSpec, profile, seed: int,
                 clock: VirtualClock) -> Shard:
    ssd = SSD(profile, clock)
    device = BlockDevice(ssd, spec.op_reserved_fraction)
    if spec.trace_lba:
        device.count_lba_writes()
    # Only the exposed range is aged; a reserved tail stays trimmed so
    # it provides software over-provisioning (§3.4, §4.6).
    apply_drive_state(ssd, spec.drive_state, seed, npages=device.npages)
    fs = ExtentFilesystem(device, seed=seed)
    store = _make_store(spec, fs, clock)
    if spec.faults is not None:
        # Fault draws come from a dedicated substream so two runs of
        # the same fault-injected spec are identical, and the engines
        # absorb transient errors through the block layer's retry budget.
        ssd.faults = FaultPlan(spec.faults,
                               rng_mod.substream(seed, "faults"))
        device.retry = RetryPolicy(spec.retry_limit, spec.retry_backoff_ms / 1e3)
    return Shard(ssd, device, fs, store)


def _shard_seed(seed: int, shard: int) -> int:
    """Deterministic per-shard seed; shard 0 keeps the spec seed.

    Keeping shard 0 on the unmodified seed makes the 1-shard fleet
    stack byte-identical to the single-store stack (same drive-state
    aging, same filesystem scatter), which the equivalence tests pin.
    """
    if shard == 0:
        return seed
    return (seed + 0x9E3779B97F4A7C15 * shard) & 0xFFFFFFFFFFFFFFFF


def _make_store(spec: ExperimentSpec, fs: ExtentFilesystem, clock: VirtualClock):
    engine = Engine(spec.engine)
    if engine is Engine.LSM:
        return LSMStore(fs, clock, LSMConfig())
    return BTreeStore(fs, clock, BTreeConfig())
