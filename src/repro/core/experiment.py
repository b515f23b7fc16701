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
from dataclasses import asdict, dataclass, field, fields
from typing import Any

import numpy as np

from repro import rng as rng_mod
from repro.analysis.stats import slo_attainment
from repro.core.metrics import (ClientLatencies, MetricsCollector, Sample,
                                ops_in)
from repro.core.stack import Engine, Stack, build_stack
from repro.core.steady_state import SteadySummary, summarize
from repro.errors import ConfigError
from repro.faults import validate_faults
from repro.flash.state import DriveState
from repro.fleet.arrival import make_arrival, validate_arrival
from repro.fleet.pool import AVAILABILITY_TARGET, FleetCounters, FleetPool
from repro.fleet.router import ROUTERS
from repro.fleet.sharded import ShardedStore
from repro.lsm.memtable import SCAN_KEY_SPAN
from repro.obs.tracer import NULL_TRACER, attach_tracer
from repro.sim.clients import ClientPool
from repro.units import MIB
from repro.workload.keys import DISTRIBUTIONS
from repro.workload.runner import load_sequential, run_workload
from repro.workload.spec import WorkloadSpec

KEY_BYTES = 16  # the paper's key size (§3.2)


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
    """Everything a run produced.  ``counters`` is the stack's final
    snapshot (whole run, load included; an open-loop run adds its
    ``fleet.*`` totals): ``smart``, ``kv_ops`` and the peak space figures
    are views of it, and it is not part of :meth:`to_dict`."""

    spec: ExperimentSpec
    samples: list[Sample]
    steady: SteadySummary | None
    out_of_space: bool
    load_seconds: float
    run_seconds: float
    ops_issued: int
    counters: dict[str, Any]
    lba_histogram: np.ndarray | None = None
    lba_never_written: float | None = None
    client_latencies: ClientLatencies | None = None  # pool-driven runs only
    per_client_ops: list[int] | None = None
    attribution: dict[str, Any] | None = None  # traced runs only (repro.obs)
    fleet: dict[str, Any] | None = None  # fleet runs only (DESIGN.md §10.3)

    @property
    def smart(self) -> dict[str, Any]:
        """The device's SMART attributes (summed over a fleet's shards)."""
        return {key[len("flash."):]: value
                for key, value in self.counters.items()
                if key.startswith("flash.")}

    @property
    def kv_ops(self) -> dict[str, int]:
        """Completed operations by kind."""
        return {kind: self.counters[f"kv.{kind}"]
                for kind in ("puts", "gets", "scans", "deletes")}

    @property
    def peak_disk_utilization(self) -> float:
        """Largest fraction of filesystem capacity ever in use (a fleet's
        is the sum of shard peaks, which need not be simultaneous)."""
        return self.counters["fs.peak_used_pages"] / self.counters["fs.npages"]

    @property
    def peak_space_amp(self) -> float:
        """Peak space amplification: disk bytes in use / dataset size."""
        return self.counters["fs.peak_used_bytes"] / max(
            self.spec.workload().dataset_bytes, 1)

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
            "smart": self.smart,
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
            "kv_ops": self.kv_ops,
            "attribution": self.attribution,
            "fleet": self.fleet,
        }


def run_experiment(spec: ExperimentSpec, tracer=None) -> ExperimentResult:
    """Run one full experiment and return its results.

    One procedure for every spec (§3.2): build the stack
    (:func:`build_stack`), load the dataset sequentially, drain, run
    the measured phase with the driver the spec names
    (:func:`run_measured_phase`) and close the series.  A fleet spec's
    result additionally carries the fleet summary (offered/goodput/SLO
    + per-shard rows, DESIGN.md §10.3).

    ``tracer`` attaches a :class:`repro.obs.Tracer` flight recorder to
    every layer of the stack.  It is enabled only for the measured
    phase (the load phase is not traced), and is a parameter rather
    than a spec field so traced and untraced runs share the same
    ``stable_hash``.  Tracing never changes simulated results.
    """
    stack = build_stack(spec)
    clock = stack.clock
    attach_tracer(tracer, clock=clock)
    for shard in stack.shards:
        attach_tracer(tracer, ssd=shard.ssd, store=shard.store)
    workload = spec.workload()
    collector = MetricsCollector(stack, workload.dataset_bytes)

    # Load phase: sequential ingest (§3.2).  WA baselines include it;
    # the time series starts after it, exactly like the paper's plots.
    load = load_sequential(stack.store, workload)
    if not load.out_of_space:
        stack.drain()
    collector.start_measurement()
    if tracer is not None:
        tracer.enable()  # trace the measured phase only
    shards_base = stack.shard_snapshots()

    run_start = clock.now
    outcome = load
    if not load.out_of_space:
        outcome = run_measured_phase(spec, stack, collector, tracer)
        _close_series(collector, spec, clock, run_start)

    samples = collector.samples
    run_seconds = clock.now - run_start
    counters = stack.snapshot()
    if outcome.fleet is not None:
        counters.update(FleetCounters.total(outcome.fleet).labelled())
    fleet = None
    if isinstance(stack.store, ShardedStore):
        fleet = _fleet_summary(
            spec, outcome, run_seconds,
            [ops_in(now) - ops_in(base) for now, base
             in zip(stack.shard_snapshots(), shards_base)])
    trace = stack.shards[0].trace
    return ExperimentResult(
        spec=spec,
        samples=samples,
        steady=summarize(samples) if samples else None,
        out_of_space=outcome.out_of_space or load.out_of_space,
        load_seconds=load.load_seconds,
        run_seconds=run_seconds,
        ops_issued=outcome.ops_issued,
        counters=counters,
        lba_histogram=trace.histogram if trace else None,
        lba_never_written=trace.fraction_never_written() if trace else None,
        client_latencies=outcome.latencies,
        per_client_ops=outcome.per_client_ops,
        attribution=tracer.attribution.as_dict() if tracer is not None else None,
        fleet=fleet,
    )


def run_measured_phase(spec: ExperimentSpec, stack: Stack, collector,
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
        return run_workload(stack.store, workload, **limits)
    if tracer is None:
        tracer = NULL_TRACER
    if spec.arrival is None:
        return ClientPool(stack.store, workload, spec.nclients, ssd=stack,
                          tracer=tracer, **limits).run()
    arrival = make_arrival(
        spec.arrival, spec.arrival_rate,
        rng_mod.substream(spec.seed, "arrival"),
        **spec.arrival_options,
    )
    return FleetPool(
        stack.store, workload, arrival, queue_cap=spec.queue_cap, ssd=stack,
        tracer=tracer, kill_at=spec.kill_at, kill_shard=spec.kill_shard,
        retry_limit=spec.retry_limit,
        retry_backoff=spec.retry_backoff_ms / 1e3,
        op_timeout=(spec.op_timeout_ms / 1e3
                    if spec.op_timeout_ms is not None else None),
        **limits,
    ).run()


def _close_series(collector, spec, clock, run_start) -> None:
    """Close the time series, unless the final window is too small to
    be meaningful (partial windows distort windowed rates)."""
    if clock.now - run_start >= spec.sample_interval * 0.5 and (
        not collector.samples
        or clock.now - (collector.samples[-1].t + run_start)
        >= spec.sample_interval * 0.5
    ):
        collector.sample()


def _fleet_summary(spec, outcome, run_seconds, shard_ops):
    """The fleet block of a result: offered vs goodput, SLO, per-shard.

    Metric definitions (DESIGN.md §10.3): *offered* counts every op
    the traffic model generated, *goodput* is completed ops per
    second, and *SLO attainment* divides ops answered within
    ``slo_ms`` by *offered* — rejected and still-queued ops count as
    misses.  Closed-loop runs have no admission control, so offered ==
    admitted == completed and attainment reduces to the within-SLO
    fraction; their per-shard rows are the engines' own op counts over
    the measured phase (*shard_ops*), latencies being per client.
    """
    completed = outcome.ops_issued
    open_loop = outcome.fleet is not None
    total = (FleetCounters.total(outcome.fleet) if open_loop else
             FleetCounters(offered=completed, admitted=completed))
    offered = total.offered
    latencies = outcome.latencies  # None when the load ran out of space
    pooled = latencies.pooled() if latencies is not None else []
    summary = {
        "nshards": spec.nshards,
        "router": spec.router,
        "arrival": spec.arrival,
        "arrival_rate": spec.arrival_rate if spec.arrival else None,
        "queue_cap": spec.queue_cap if spec.arrival else None,
        "slo_ms": spec.slo_ms,
        "offered": offered,
        "admitted": total.admitted,
        "rejected": total.rejected,
        "completed": completed,
        "offered_rate": offered / run_seconds if run_seconds > 0 else 0.0,
        "goodput": completed / run_seconds if run_seconds > 0 else 0.0,
        "slo_attainment": slo_attainment(pooled, spec.slo_ms / 1e3,
                                         offered=offered),
        "per_shard": [{"shard": shard, "ops": ops}
                      for shard, ops in enumerate(shard_ops)],
    }
    if not open_loop:
        return summary
    # Chaos accounting (DESIGN.md §11): availability is the fraction
    # of offered ops that completed; the error budget is burned
    # against the three-nines target; retry amplification is total
    # attempts (first tries + retries) per offered op.
    availability = completed / offered if offered else 1.0
    summary.update({
        "failed": total.failed,
        "timeouts": total.timeouts,
        "retries": total.retries,
        "lost_keys": total.lost_keys,
        "availability": availability,
        "error_budget_burn": (1.0 - availability) / (1.0 - AVAILABILITY_TARGET),
        "retry_amplification": (
            (offered + total.retries) / offered if offered else 1.0
        ),
    })
    response = latencies.summary()  # open loop: one series per shard
    summary["per_shard"] = [
        {
            "shard": shard,
            "offered": row.offered,
            "admitted": row.admitted,
            "rejected": row.rejected,
            "ops": row.completed,
            "p50": response[shard]["p50"],
            "p95": response[shard]["p95"],
            "p99": response[shard]["p99"],
            "qdepth_max": outcome.qdepth_max[shard],
            "qdepth_mean": row.qdepth_sum / row.offered if row.offered else 0.0,
            "failed": row.failed,
            "timeouts": row.timeouts,
            "retries": row.retries,
            "recovery_seconds": row.recovery_seconds,
            "downtime_seconds": row.downtime_seconds,
            "health": outcome.health[shard],
        }
        for shard, row in enumerate(outcome.fleet)
    ]
    return summary
