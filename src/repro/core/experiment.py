"""Experiment orchestration: the paper's benchmark procedure end to end.

One :class:`ExperimentSpec` describes a full run the way §3 does:
which engine, which SSD, the initial drive state, the dataset size as
a fraction of capacity, the workload, optional software
over-provisioning, and how long to run (by default until cumulative
host writes reach 3.5x the device capacity — past the §4.1 rule of
thumb).  :func:`run_experiment` assembles the whole simulated stack,
loads the dataset sequentially, runs the measured phase with periodic
sampling, and returns the time series plus a steady-state summary.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from typing import Any

import numpy as np

from repro import rng as rng_mod
from repro.analysis.stats import slo_attainment
from repro.block.blktrace import BlkTrace
from repro.block.device import BlockDevice
from repro.block.iostat import IOStat
from repro.block.partition import overprovisioned_partition, whole_device_partition
from repro.btree.config import BTreeConfig
from repro.btree.store import BTreeStore
from repro.core.clock import VirtualClock
from repro.core.metrics import ClientLatencies, MetricsCollector, Sample
from repro.core.steady_state import SteadySummary, summarize
from repro.errors import ConfigError
from repro.faults import FaultPlan, RetryPolicy, validate_faults
from repro.flash.gc import make_policy
from repro.flash.profiles import get_profile
from repro.flash.ssd import SSD
from repro.flash.state import DriveState, apply_drive_state
from repro.fleet.arrival import make_arrival, validate_arrival
from repro.fleet.pool import AVAILABILITY_TARGET, FleetOutcome, FleetPool
from repro.fleet.router import ROUTERS, make_router
from repro.fleet.sharded import FleetFilesystem, FleetSSD, ShardedStore
from repro.fs.filesystem import ExtentFilesystem
from repro.lsm.config import LSMConfig
from repro.lsm.memtable import SCAN_KEY_SPAN
from repro.lsm.store import LSMStore
from repro.obs.tracer import NULL_TRACER, attach_tracer
from repro.sim.clients import ClientPool
from repro.units import MIB
from repro.workload.keys import DISTRIBUTIONS
from repro.workload.runner import load_sequential, run_workload
from repro.workload.spec import WorkloadSpec

KEY_BYTES = 16  # the paper's key size (§3.2)


class Engine(str, Enum):
    """Which persistent tree structure to benchmark."""

    LSM = "lsm"
    BTREE = "btree"


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete description of one benchmark run."""

    name: str = "experiment"
    engine: Engine = Engine.LSM
    ssd: str = "ssd1"
    capacity_bytes: int = 128 * MIB
    drive_state: DriveState = DriveState.TRIMMED
    dataset_fraction: float = 0.5
    value_bytes: int = 4000
    read_fraction: float = 0.0
    scan_fraction: float = 0.0
    scan_length: int = 100
    delete_fraction: float = 0.0
    distribution: str = "uniform"
    op_reserved_fraction: float = 0.0  # software over-provisioning (§4.6)
    duration_capacity_writes: float = 3.5  # stop after host writes >= x*capacity
    max_ops: int | None = None
    nclients: int = 1  # concurrent clients; >1 uses the event-driven pool
    #: Which measured-phase driver to use: "auto" picks the inline
    #: runner at one client and the event-driven ClientPool otherwise;
    #: "pool" forces the pool even at one client (bit-identical to
    #: inline, DESIGN.md §7 — and it records per-op latencies, which
    #: the queue-depth campaign needs at depth 1); "inline" forces the
    #: single-client runner.
    driver: str = "auto"
    #: Fleet shape (DESIGN.md §10): >1 splits the device budget into N
    #: independent shard stacks behind a key router on one clock.
    nshards: int = 1
    router: str = "hash"  # key→shard discipline: "hash" or "range"
    #: Open-loop traffic: an arrival-process name ("poisson",
    #: "diurnal", "bursty") switches the measured phase from
    #: closed-loop clients to arrival-driven sources at
    #: ``arrival_rate`` ops/s; None keeps the closed-loop drivers.
    arrival: str | None = None
    arrival_rate: float = 0.0
    arrival_options: dict = field(default_factory=dict)
    queue_cap: int = 64  # per-shard admission bound (open-loop only)
    slo_ms: float = 5.0  # response-time objective for SLO attainment
    sample_interval: float = 0.25
    seed: int = rng_mod.DEFAULT_SEED
    fs_strategy: str = "scatter"
    fs_discard: bool = False
    gc_policy: str = "greedy"
    trace_lba: bool = False
    engine_options: dict = field(default_factory=dict)
    ssd_options: dict = field(default_factory=dict)  # SSDConfig overrides
    #: Fault injection (repro.faults, DESIGN.md §11): a dict of fault
    #: kinds, e.g. ``{"program": 0.01, "latency": 0.005}``.  None (the
    #: default) keeps every fault hook a no-op and all fingerprints
    #: byte-identical to the fault-free build.
    faults: dict | None = None
    #: Chaos schedule (open-loop fleet runs only): kill shard
    #: ``kill_shard`` at ``kill_at`` seconds into the measured phase;
    #: it rebuilds via WAL replay / journal recovery on first contact.
    kill_at: float | None = None
    kill_shard: int = 0
    #: Bounded retry-with-backoff, shared by the engine tier (device
    #: submissions under fault injection) and the fleet tier (ops
    #: bounced off down shards).
    retry_limit: int = 3
    retry_backoff_ms: float = 0.5
    #: Per-op service timeout in the open-loop fleet (queued ops older
    #: than this fail instead of being served); None disables it.
    op_timeout_ms: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.dataset_fraction:
            raise ConfigError("dataset_fraction must be positive")
        if self.value_bytes < 0:
            raise ConfigError("value_bytes cannot be negative")
        for name in ("read_fraction", "scan_fraction", "delete_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.read_fraction + self.scan_fraction + self.delete_fraction > 1.0:
            raise ConfigError(
                "read_fraction + scan_fraction + delete_fraction must be <= 1"
            )
        if self.scan_length < 1:
            raise ConfigError("scan_length must be >= 1")
        if (Engine(self.engine) is Engine.LSM and self.scan_fraction > 0
                and self.nkeys > SCAN_KEY_SPAN):
            # Fail before the load, not at the measured phase's first scan.
            raise ConfigError(
                f"the LSM scan merge takes keys below {SCAN_KEY_SPAN}; "
                f"this spec loads {self.nkeys}")
        if self.distribution not in DISTRIBUTIONS:
            raise ConfigError(
                f"unknown distribution {self.distribution!r}; "
                f"expected one of {sorted(DISTRIBUTIONS)}"
            )
        if not 0.0 <= self.op_reserved_fraction < 1.0:
            raise ConfigError("op_reserved_fraction must be in [0, 1)")
        if self.duration_capacity_writes <= 0:
            raise ConfigError("duration_capacity_writes must be positive")
        if self.sample_interval <= 0:
            raise ConfigError("sample_interval must be positive")
        if self.nclients < 1:
            raise ConfigError("nclients must be >= 1")
        if self.driver not in ("auto", "inline", "pool"):
            raise ConfigError(
                f"unknown driver {self.driver!r}; expected auto, inline or pool"
            )
        if self.driver == "inline" and self.nclients > 1:
            raise ConfigError("the inline driver is single-client; "
                              "use driver='auto' or 'pool' with nclients > 1")
        if self.nshards < 1:
            raise ConfigError("nshards must be >= 1")
        if self.router not in ROUTERS:
            raise ConfigError(
                f"unknown router {self.router!r}; "
                f"expected one of {sorted(ROUTERS)}"
            )
        if self.queue_cap < 1:
            raise ConfigError("queue_cap must be >= 1")
        if self.slo_ms <= 0:
            raise ConfigError("slo_ms must be positive")
        if self.arrival is not None:
            # Validates the process name, the rate (> 0) and the
            # option names/values through the constructors themselves.
            validate_arrival(self.arrival, self.arrival_rate,
                             self.arrival_options)
            if self.nclients > 1:
                raise ConfigError(
                    "open-loop arrivals replace closed-loop clients; "
                    "nclients must be 1 when arrival is set"
                )
            if self.driver == "inline":
                raise ConfigError(
                    "open-loop arrivals need the event-driven fleet "
                    "driver; driver='inline' is closed-loop only"
                )
        elif self.arrival_rate:
            raise ConfigError("arrival_rate requires an arrival process")
        if self.nshards > 1 and self.trace_lba:
            raise ConfigError("trace_lba is single-device only; "
                              "it is not supported with nshards > 1")
        if self.faults is not None:
            validate_faults(self.faults)
        if self.retry_limit < 0:
            raise ConfigError("retry_limit must be >= 0")
        if self.retry_backoff_ms < 0:
            raise ConfigError("retry_backoff_ms must be >= 0")
        if self.op_timeout_ms is not None and self.op_timeout_ms <= 0:
            raise ConfigError("op_timeout_ms must be positive")
        if self.kill_at is not None:
            if self.kill_at <= 0:
                raise ConfigError("kill_at must be positive")
            if self.arrival is None:
                raise ConfigError(
                    "kill_at requires an open-loop arrival process; "
                    "closed-loop drivers have no fail-fast path")
            if not 0 <= self.kill_shard < self.nshards:
                raise ConfigError(
                    f"kill_shard must be in [0, nshards); got "
                    f"{self.kill_shard} with nshards={self.nshards}")
        elif self.kill_shard:
            raise ConfigError("kill_shard requires kill_at")

    @property
    def nkeys(self) -> int:
        """Keys needed for the dataset to occupy ``dataset_fraction``."""
        dataset_bytes = self.capacity_bytes * self.dataset_fraction
        return max(1, int(dataset_bytes / (KEY_BYTES + self.value_bytes)))

    def workload(self) -> WorkloadSpec:
        """The measured-phase workload this spec describes."""
        return WorkloadSpec(
            nkeys=self.nkeys,
            value_bytes=self.value_bytes,
            read_fraction=self.read_fraction,
            distribution=self.distribution,
            scan_fraction=self.scan_fraction,
            scan_length=self.scan_length,
            delete_fraction=self.delete_fraction,
        )

    # ------------------------------------------------------------------
    # Serialization (campaign persistence and worker dispatch)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form: enums as values, JSON-serializable."""
        spec = {f.name: getattr(self, f.name) for f in fields(self)}
        spec["engine"] = Engine(self.engine).value
        spec["drive_state"] = DriveState(self.drive_state).value
        spec["engine_options"] = dict(self.engine_options)
        spec["ssd_options"] = dict(self.ssd_options)
        spec["arrival_options"] = dict(self.arrival_options)
        return spec

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown ExperimentSpec fields: {sorted(unknown)}")
        params = dict(data)
        if "engine" in params:
            params["engine"] = Engine(params["engine"])
        if "drive_state" in params:
            params["drive_state"] = DriveState(params["drive_state"])
        return cls(**params)

    def stable_hash(self) -> str:
        """A short content hash of the spec, stable across processes.

        Campaign stores key completed cells by this hash, so a resumed
        campaign recognizes finished work regardless of grid order.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class ExperimentResult:
    """Everything a run produced."""

    spec: ExperimentSpec
    samples: list[Sample]
    steady: SteadySummary | None
    out_of_space: bool
    load_seconds: float
    run_seconds: float
    ops_issued: int
    smart: dict[str, Any]
    peak_disk_utilization: float
    peak_space_amp: float
    lba_histogram: np.ndarray | None = None
    lba_never_written: float | None = None
    client_latencies: ClientLatencies | None = None  # pool-driven runs only
    per_client_ops: list[int] | None = None
    kv_ops: dict[str, int] = field(default_factory=dict)  # puts/gets/scans/deletes
    attribution: dict[str, Any] | None = None  # traced runs only (repro.obs)
    fleet: dict[str, Any] | None = None  # fleet runs only (DESIGN.md §10.3)

    @property
    def completed(self) -> bool:
        """Whether the run finished without running out of space."""
        return not self.out_of_space

    def to_dict(self, include_samples: bool = True) -> dict[str, Any]:
        """JSON-serializable record of the run (one campaign cell).

        The LBA histogram (a large array) is summarized rather than
        embedded; latencies are reduced to their percentile summary.
        All values round-trip through JSON without loss, which is what
        makes campaign resume byte-deterministic.
        """
        return {
            "cell": self.spec.stable_hash(),
            "spec": self.spec.to_dict(),
            "steady": asdict(self.steady) if self.steady else None,
            "out_of_space": self.out_of_space,
            "load_seconds": self.load_seconds,
            "run_seconds": self.run_seconds,
            "ops_issued": self.ops_issued,
            "smart": dict(self.smart),
            "peak_disk_utilization": self.peak_disk_utilization,
            "peak_space_amp": self.peak_space_amp,
            "samples": [asdict(s) for s in self.samples] if include_samples else None,
            "lba_never_written": self.lba_never_written,
            "client_latency_summary": (
                self.client_latencies.summary()
                if self.client_latencies is not None and self.client_latencies.count()
                else None
            ),
            "latency": (
                self.client_latencies.pooled_summary()
                if self.client_latencies is not None and self.client_latencies.count()
                else None
            ),
            "per_client_ops": self.per_client_ops,
            "kv_ops": dict(self.kv_ops),
            "attribution": self.attribution,
            "fleet": self.fleet,
        }


def build_stack(spec: ExperimentSpec, clock: VirtualClock | None = None,
                iostat: IOStat | None = None):
    """Assemble (clock, ssd, device, partition, fs, store, iostat, trace)
    for a spec, with the drive already in its initial state.

    ``clock``/``iostat`` let a fleet build share one timeline and one
    device-throughput monitor across shard stacks (IOStat is an
    accumulator, so attaching the same instance to every shard's
    device yields fleet-aggregate rates); by default each stack gets
    its own, exactly as before.
    """
    if clock is None:
        clock = VirtualClock()
    profile = get_profile(spec.ssd, spec.capacity_bytes)
    if spec.ssd_options:
        profile = replace(profile, **spec.ssd_options)
    ssd = SSD(profile, clock, make_policy(spec.gc_policy))
    device = BlockDevice(ssd)
    if iostat is None:
        iostat = IOStat(device.page_size,
                        bin_seconds=min(0.05, spec.sample_interval / 5))
    device.attach(iostat)
    trace = None
    if spec.trace_lba:
        trace = BlkTrace(device.npages)
        device.attach(trace)
    if spec.op_reserved_fraction > 0:
        partition = overprovisioned_partition(device, spec.op_reserved_fraction)
    else:
        partition = whole_device_partition(device)
    # Only the PTS partition is aged; a reserved range stays trimmed so
    # it provides software over-provisioning (§3.4, §4.6).
    apply_drive_state(ssd, spec.drive_state, spec.seed,
                      start_page=partition.start_page, npages=partition.npages)
    fs = ExtentFilesystem(
        partition,
        strategy=spec.fs_strategy,
        discard=spec.fs_discard,
        seed=spec.seed,
    )
    store = _make_store(spec, fs, clock)
    if spec.faults is not None:
        # Fault draws come from a dedicated substream so two runs of
        # the same fault-injected spec are identical, and the engines
        # absorb transient errors through the filesystem's retry wrap.
        ssd.faults = FaultPlan(spec.faults,
                               rng_mod.substream(spec.seed, "faults"))
        fs.retry = RetryPolicy(spec.retry_limit, spec.retry_backoff_ms / 1e3)
    return clock, ssd, device, partition, fs, store, iostat, trace


def run_experiment(spec: ExperimentSpec, tracer=None) -> ExperimentResult:
    """Run one full experiment and return its results.

    One procedure for every spec (§3.2): build the stack — one store,
    or for a fleet spec (more than one shard, or an open-loop arrival
    process) N shard stacks behind a router on one clock — load the
    dataset sequentially, drain, run the measured phase with the driver
    the spec names (:func:`run_measured_phase`) and close the series.
    A single-store closed-loop spec hands the bare engine to the
    driver; a fleet spec's result additionally carries the fleet
    summary (offered/goodput/SLO + per-shard rows, DESIGN.md §10.3).

    ``tracer`` attaches a :class:`repro.obs.Tracer` flight recorder to
    every layer of the stack.  It is enabled only for the measured
    phase (the load phase is not traced), and is a parameter rather
    than a spec field so traced and untraced runs share the same
    ``stable_hash``.  Tracing never changes simulated results.
    """
    fleet = spec.nshards > 1 or spec.arrival is not None
    if fleet:
        clock, store, ssd, fs, iostat, shard_ssds, shard_stores = \
            build_fleet_stack(spec)
        trace = None
    else:
        clock, ssd, _device, _partition, fs, store, iostat, trace = \
            build_stack(spec)
        shard_ssds, shard_stores = [ssd], [store]
    attach_tracer(tracer, clock=clock)
    for shard_ssd, shard_store in zip(shard_ssds, shard_stores):
        attach_tracer(tracer, ssd=shard_ssd, store=shard_store)
    workload = spec.workload()
    collector = MetricsCollector(
        clock=clock, ssd=ssd, iostat=iostat, fs=fs, store=store,
        dataset_bytes=workload.dataset_bytes,
    )

    # Load phase: sequential ingest (§3.2).  WA baselines include it;
    # the time series starts after it, exactly like the paper's plots.
    load = load_sequential(store, workload)
    if not load.out_of_space:
        ssd.drain()
    collector.start_measurement()
    if tracer is not None:
        tracer.enable()  # trace the measured phase only
    peak_util = fs.utilization()
    stats_base = [st.stats.snapshot() for st in shard_stores]

    run_start = clock.now
    outcome = load
    if not load.out_of_space:
        outcome = run_measured_phase(spec, store, ssd, collector, tracer)
        _close_series(collector, spec, clock, run_start)

    samples = collector.samples
    steady = summarize(samples) if samples else None
    peak_util = max(peak_util, fs.allocator.peak_used_pages / fs.allocator.npages)
    dataset = max(workload.dataset_bytes, 1)
    run_seconds = clock.now - run_start
    return ExperimentResult(
        spec=spec,
        samples=samples,
        steady=steady,
        out_of_space=outcome.out_of_space or load.out_of_space,
        load_seconds=load.load_seconds,
        run_seconds=run_seconds,
        ops_issued=outcome.ops_issued,
        smart=ssd.smart.as_dict(),
        peak_disk_utilization=peak_util,
        peak_space_amp=fs.peak_used_bytes / dataset,
        lba_histogram=trace.histogram if trace else None,
        lba_never_written=trace.fraction_never_written() if trace else None,
        client_latencies=getattr(outcome, "latencies", None),
        per_client_ops=getattr(outcome, "per_client_ops", None),
        kv_ops={
            "puts": store.stats.puts,
            "gets": store.stats.gets,
            "scans": store.stats.scans,
            "deletes": store.stats.deletes,
        },
        attribution=tracer.attribution.as_dict() if tracer is not None else None,
        fleet=_fleet_summary(spec, outcome, shard_stores, stats_base,
                             run_seconds) if fleet else None,
    )


def run_measured_phase(spec: ExperimentSpec, store, ssd, collector,
                       tracer=None):
    """Drive *spec*'s measured phase on a loaded stack; the outcome.

    The one place a spec becomes a driver.  ``spec.driver`` picks the
    closed-loop one — the inline runner for one client on one store
    (unless ``driver="pool"``), the event-driven :class:`~repro.sim.
    clients.ClientPool` otherwise, which is bit-identical to the inline
    runner at one client and records per-op latencies; more than one
    shard always takes the pool, so fleet results carry latencies at
    every depth.  An arrival process replaces the closed loop with the
    open-loop :class:`~repro.fleet.pool.FleetPool`.  The run stops once
    host writes reach ``duration_capacity_writes`` device capacities,
    or at ``spec.max_ops``.  A mix of only gets and scans never moves
    the host-write counter, so without a ``max_ops`` it gets the op
    budget a pure-update run would need to reach the write target.
    """
    workload = spec.workload()
    target_bytes = int(spec.duration_capacity_writes * spec.capacity_bytes)
    max_ops = spec.max_ops
    if max_ops is None and spec.read_fraction + spec.scan_fraction >= 1.0:
        max_ops = max(1, target_bytes // max(spec.value_bytes, 1))
    limits = dict(
        seed=spec.seed,
        stop_when=lambda: collector.host_bytes_written() >= target_bytes,
        sample_interval=spec.sample_interval,
        on_sample=collector.sample,
        max_ops=max_ops,
    )
    if (spec.arrival is None and spec.nshards == 1 and spec.nclients == 1
            and spec.driver != "pool"):
        return run_workload(store, workload, **limits)
    if tracer is None:
        tracer = NULL_TRACER
    if spec.arrival is None:
        return ClientPool(store, workload, spec.nclients, ssd=ssd,
                          tracer=tracer, **limits).run()
    arrival = make_arrival(
        spec.arrival, spec.arrival_rate,
        rng_mod.substream(spec.seed, "arrival"),
        **spec.arrival_options,
    )
    return FleetPool(
        store, workload, arrival, queue_cap=spec.queue_cap, ssd=ssd,
        tracer=tracer, kill_at=spec.kill_at, kill_shard=spec.kill_shard,
        retry_limit=spec.retry_limit,
        retry_backoff=spec.retry_backoff_ms / 1e3,
        op_timeout=(spec.op_timeout_ms / 1e3
                    if spec.op_timeout_ms is not None else None),
        **limits,
    ).run()


def _make_store(spec: ExperimentSpec, fs: ExtentFilesystem, clock: VirtualClock):
    engine = Engine(spec.engine)
    if engine is Engine.LSM:
        return LSMStore(fs, clock, LSMConfig(**spec.engine_options))
    return BTreeStore(fs, clock, BTreeConfig(**spec.engine_options))


def _close_series(collector, spec, clock, run_start) -> None:
    """Close the time series, unless the final window is too small to
    be meaningful (partial windows distort windowed rates)."""
    if clock.now - run_start >= spec.sample_interval * 0.5 and (
        not collector.samples
        or clock.now - (collector.samples[-1].t + run_start)
        >= spec.sample_interval * 0.5
    ):
        collector.sample()


# ----------------------------------------------------------------------
# Fleet experiments (DESIGN.md §10)
# ----------------------------------------------------------------------

def _shard_seed(seed: int, shard: int) -> int:
    """Deterministic per-shard seed; shard 0 keeps the spec seed.

    Keeping shard 0 on the unmodified seed makes the 1-shard fleet
    stack byte-identical to the single-store stack (same drive-state
    aging, same filesystem scatter), which the equivalence tests pin.
    """
    if shard == 0:
        return seed
    return (seed + 0x9E3779B97F4A7C15 * shard) & 0xFFFFFFFFFFFFFFFF


def build_fleet_stack(spec: ExperimentSpec):
    """Assemble a fleet of shard stacks behind a router on one clock.

    Each shard owns 1/nshards of the device budget as its own SSD +
    filesystem + engine instance (independent channels and GC, per
    Roh et al.'s internal-parallelism observation), aged from a
    per-shard seed; one shared :class:`IOStat` accumulates fleet-wide
    device throughput.  Returns ``(clock, store, fleet_ssd, fleet_fs,
    iostat, shard_ssds, shard_stores)`` where *store* is the
    router-fronted :class:`~repro.fleet.sharded.ShardedStore`.
    """
    clock = VirtualClock()
    router = make_router(spec.router, spec.nshards, spec.nkeys)
    shard_capacity = spec.capacity_bytes // spec.nshards
    iostat = None
    ssds, filesystems, stores = [], [], []
    for shard in range(spec.nshards):
        shard_spec = replace(
            spec,
            name=f"{spec.name}/shard{shard}",
            capacity_bytes=shard_capacity,
            seed=_shard_seed(spec.seed, shard),
            nshards=1,
            arrival=None,
            arrival_rate=0.0,
            arrival_options={},
            nclients=1,
            driver="auto",
            trace_lba=False,
            kill_at=None,
            kill_shard=0,
        )
        _clock, ssd, _device, _partition, fs, st, iostat, _trace = \
            build_stack(shard_spec, clock=clock, iostat=iostat)
        ssds.append(ssd)
        filesystems.append(fs)
        stores.append(st)
    store = ShardedStore(stores, router, clock)
    if spec.kill_at is not None:
        # The victim shard records per-key WAL/journal positions so the
        # crash can compute exactly which writes the lost buffers held.
        stores[spec.kill_shard].enable_crash_tracking()
    return clock, store, FleetSSD(ssds), FleetFilesystem(filesystems), \
        iostat, ssds, stores


def _fleet_summary(spec, outcome, stores, stats_base, run_seconds):
    """The fleet block of a result: offered vs goodput, SLO, per-shard.

    Metric definitions (DESIGN.md §10.3): *offered* counts every op
    the traffic model generated, *goodput* is completed ops per
    second, and *SLO attainment* divides ops answered within
    ``slo_ms`` by *offered* — rejected and still-queued ops count as
    misses.  Closed-loop runs have no admission control, so offered ==
    completed and attainment reduces to the within-SLO fraction.
    """
    latencies = getattr(outcome, "latencies", None)
    completed = outcome.ops_issued
    offered = getattr(outcome, "offered", completed)
    slo_seconds = spec.slo_ms / 1e3
    pooled = latencies.pooled() if latencies is not None else []
    summary = {
        "nshards": spec.nshards,
        "router": spec.router,
        "arrival": spec.arrival,
        "arrival_rate": spec.arrival_rate if spec.arrival else None,
        "queue_cap": spec.queue_cap if spec.arrival else None,
        "slo_ms": spec.slo_ms,
        "offered": offered,
        "admitted": getattr(outcome, "admitted", completed),
        "rejected": getattr(outcome, "rejected", 0),
        "completed": completed,
        "offered_rate": offered / run_seconds if run_seconds > 0 else 0.0,
        "goodput": completed / run_seconds if run_seconds > 0 else 0.0,
        "slo_attainment": slo_attainment(pooled, slo_seconds, offered=offered),
        "per_shard": [],
    }
    open_loop = isinstance(outcome, FleetOutcome)
    if open_loop:
        # Chaos accounting (DESIGN.md §11): availability is the
        # fraction of offered ops that completed; the error budget is
        # burned against the three-nines target; retry amplification
        # is total attempts (first tries + retries) per offered op.
        failed = outcome.failed
        retries = outcome.retries
        availability = completed / offered if offered else 1.0
        budget = 1.0 - AVAILABILITY_TARGET
        summary.update({
            "failed": failed,
            "timeouts": outcome.timeouts,
            "retries": retries,
            "lost_keys": outcome.lost_keys,
            "availability": availability,
            "error_budget_burn": (1.0 - availability) / budget,
            "retry_amplification": (
                (offered + retries) / offered if offered else 1.0
            ),
        })
    for shard, st in enumerate(stores):
        if open_loop:
            data = latencies.series(shard)
            row = {
                "shard": shard,
                "offered": outcome.offered_per_shard[shard],
                "admitted": outcome.admitted_per_shard[shard],
                "rejected": outcome.rejected_per_shard[shard],
                "ops": outcome.completed_per_shard[shard],
                "p50": float(np.percentile(data, 50)) if data.size else 0.0,
                "p95": float(np.percentile(data, 95)) if data.size else 0.0,
                "p99": float(np.percentile(data, 99)) if data.size else 0.0,
                "qdepth_max": outcome.qdepth_max[shard],
                "qdepth_mean": outcome.qdepth_mean(shard),
                "failed": outcome.failed_per_shard[shard],
                "timeouts": outcome.timeouts_per_shard[shard],
                "retries": outcome.retries_per_shard[shard],
                "recovery_seconds": outcome.recovery_seconds[shard],
                "downtime_seconds": outcome.downtime_seconds[shard],
                "health": outcome.health[shard],
            }
        else:
            # Closed-loop: latencies are per *client*, not per shard;
            # per-shard ops come from the engines' own counters.
            row = {
                "shard": shard,
                "ops": st.stats.delta(stats_base[shard]).ops,
            }
        summary["per_shard"].append(row)
    return summary
