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
import math
from dataclasses import asdict, dataclass, fields
from typing import Any

import numpy as np

from repro import rng as rng_mod
from repro.analysis.stats import slo_attainment
from repro.btree.config import BTreeConfig
from repro.core.metrics import (ClientLatencies, MetricsCollector, Sample,
                                ops_in)
from repro.core.stack import Engine, Stack, build_stack
from repro.core.steady_state import SteadySummary, summarize
from repro.errors import ConfigError
from repro.faults import validate_faults
from repro.flash.config import SSDConfig
from repro.flash.profiles import get_profile
from repro.flash.state import DriveState
from repro.fleet.arrival import make_arrival, validate_arrival
from repro.fleet.pool import (AVAILABILITY_TARGET, FleetCounters, FleetPool,
                              open_loop_outcome)
from repro.fleet.router import ROUTERS
from repro.lsm.memtable import SCAN_KEY_SPAN
from repro.obs.tracer import NULL_TRACER, attach_tracer
from repro.units import MIB
from repro.workload.keys import DISTRIBUTIONS
from repro.workload.runner import RunOutcome, load_sequential
from repro.workload.spec import WorkloadSpec

KEY_BYTES = 16  # the paper's key size (§3.2)

#: Spec fields that count something: an int (a numpy integer becomes
#: one), never a bool or a float (each used to die deep in the stack,
#: or to run silently on a truncated value).
_INTEGER_FIELDS = ("capacity_bytes", "value_bytes", "scan_length", "max_ops",
                   "nclients", "nshards", "queue_cap", "kill_shard",
                   "retry_limit", "seed")


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
    nclients: int = 1  # concurrent closed-loop clients of FleetPool
    #: Whether a one-client run on one store reports per-client
    #: results: "pool" records per-op latencies and per-client op
    #: counts (the queue-depth campaign needs them at depth 1); "auto"
    #: and "inline" do not.  Every closed loop runs on FleetPool's
    #: clients either way, and the simulated run is the same.  More
    #: clients or shards always report them; "inline" is refused there
    #: and with arrivals, "pool" with arrivals.
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
    queue_cap: int = 64  # per-shard admission bound (open-loop only)
    slo_ms: float = 5.0  # response-time objective for SLO attainment
    sample_interval: float = 0.25
    seed: int = rng_mod.DEFAULT_SEED
    trace_lba: bool = False
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
    #: than this fail instead of being served); None disables it, and a
    #: closed loop, which has no queue, refuses it.
    op_timeout_ms: float | None = None

    def __post_init__(self) -> None:
        for spec_field in fields(self):  # numpy numbers hash as Python's
            value = getattr(self, spec_field.name)
            if isinstance(value, (np.integer, np.floating)):
                object.__setattr__(self, spec_field.name, value.item())
        for name, kind in (("engine", Engine), ("drive_state", DriveState)):
            value = getattr(self, name)
            names = [member.value for member in kind]
            if value not in names:
                raise ConfigError(f"unknown {name} {value!r}; "
                                  f"expected one of {names}")
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, int)) \
                    and not (name == "max_ops" and value is None):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        # Written so that NaN fails too (it fails every comparison).
        for name in ("dataset_fraction", "duration_capacity_writes",
                     "sample_interval", "slo_ms", "op_timeout_ms", "kill_at"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite")
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
        if self.nclients < 1:
            raise ConfigError("nclients must be >= 1")
        if self.driver not in ("auto", "inline", "pool"):
            raise ConfigError(
                f"unknown driver {self.driver!r}; expected auto, inline or pool"
            )
        if self.driver == "inline" and (self.nclients > 1 or self.nshards > 1):
            raise ConfigError("the inline driver is one client on one store; "
                              "use driver='auto' or 'pool'")
        if self.nshards < 1:
            raise ConfigError("nshards must be >= 1")
        if self.router not in ROUTERS:
            raise ConfigError(
                f"unknown router {self.router!r}; "
                f"expected one of {sorted(ROUTERS)}"
            )
        if self.queue_cap < 1:
            raise ConfigError("queue_cap must be >= 1")
        if self.arrival is not None:
            # Validates the process name and the rate (> 0) through
            # the constructors themselves.
            validate_arrival(self.arrival, self.arrival_rate)
            if self.nclients > 1:
                raise ConfigError(
                    "open-loop arrivals replace closed-loop clients; "
                    "nclients must be 1 when arrival is set"
                )
            if self.driver != "auto":
                raise ConfigError(
                    "open-loop arrivals run the fleet driver; "
                    f"driver={self.driver!r} is closed-loop only"
                )
        elif self.arrival_rate:
            raise ConfigError("arrival_rate requires an arrival process")
        elif self.op_timeout_ms is not None:
            raise ConfigError(
                "op_timeout_ms requires an open-loop arrival process; "
                "closed-loop clients wait for every op")
        if self.nshards > 1 and self.trace_lba:
            raise ConfigError("trace_lba is single-device only; "
                              "it is not supported with nshards > 1")
        if self.faults is not None:
            object.__setattr__(self, "faults", validate_faults(self.faults))
        if self.retry_limit < 0:
            raise ConfigError("retry_limit must be >= 0")
        if not 0 <= self.retry_backoff_ms < math.inf:
            raise ConfigError("retry_backoff_ms must be >= 0 and finite")
        if self.kill_at is not None:
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
        if self.seed < 0:
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if self.max_ops is not None and self.max_ops <= 0:
            raise ConfigError("max_ops must be positive (None: no op budget)")
        ssd = self.shard_ssd()  # an unknown profile name fails here
        degrade = (self.faults or {}).get("degrade")
        if degrade is not None:
            # A window that can never fire would run a healthy device
            # under a faulty spec's name.
            if self.nclients == 1 and self.arrival is None:
                raise ConfigError(
                    "faults.degrade slows one flash channel, and one "
                    "closed-loop client runs on the channel-less scalar "
                    "device timing; set nclients > 1 or an arrival process")
            if degrade["channel"] >= ssd.channels:
                raise ConfigError(
                    f"faults.degrade.channel {degrade['channel']} is not "
                    f"below the {ssd.channels} channels of {self.ssd!r}")
        if Engine(self.engine) is Engine.BTREE:
            self._check_btree_fits(BTreeConfig(), ssd)

    def _check_btree_fits(self, config: BTreeConfig, ssd: SSDConfig) -> None:
        """A value must fit a leaf page and the journal ring a shard."""
        if config.leaf_entry_bytes(self.value_bytes) > config.leaf_page_bytes:
            # A split would leave an empty right sibling.
            raise ConfigError(
                f"value_bytes {self.value_bytes} does not fit one "
                f"{config.leaf_page_bytes}-byte B+Tree leaf page; at most "
                f"{config.leaf_page_bytes - config.leaf_entry_bytes(0)}")
        exposed = int(ssd.logical_pages * (1.0 - self.op_reserved_fraction))
        if config.journal_ring_bytes > exposed * ssd.page_size:
            # The store pre-allocates its journal ring when it is built.
            raise ConfigError(
                f"the {config.journal_ring_bytes}-byte B+Tree journal ring "
                f"does not fit a shard's {exposed * ssd.page_size}-byte "
                "exposed range")

    def shard_ssd(self) -> SSDConfig:
        """The drive of each shard: the named profile at 1/nshards of
        the capacity."""
        return get_profile(self.ssd, self.capacity_bytes // self.nshards)

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
        """A short content hash of what the spec simulates (every field
        but ``name``), stable across processes: a cell's key wherever
        its record is kept (a campaign store, the figures' cache)."""
        spec = self.to_dict()
        del spec["name"]
        canonical = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class ExperimentResult:
    """Everything a run produced.  ``counters`` is the stack's final
    snapshot (whole run, load included; an open-loop run adds its
    ``fleet.*`` totals): ``smart``, ``kv_ops`` and the peak space figures
    are views of it.  :meth:`from_record` reads a record back: all of
    it but ``client_latencies``, the per-op series behind the two
    summaries."""

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
    client_latency_summary: list[dict[str, float]] | None = None
    latency: dict[str, float] | None = None  # all clients pooled
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
        """The run's record (one cell): every value round-trips through
        JSON without loss, which makes campaign resume byte-deterministic
        and :meth:`from_record` exact."""
        return {
            "cell": self.spec.stable_hash(),
            "spec": self.spec.to_dict(),
            "steady": asdict(self.steady) if self.steady else None,
            "out_of_space": self.out_of_space,
            "load_seconds": self.load_seconds,
            "run_seconds": self.run_seconds,
            "ops_issued": self.ops_issued,
            "counters": self.counters,
            "smart": self.smart,
            "peak_disk_utilization": self.peak_disk_utilization,
            "peak_space_amp": self.peak_space_amp,
            "samples": [asdict(s) for s in self.samples] if include_samples else None,
            "lba_histogram": (self.lba_histogram.tolist()
                              if self.lba_histogram is not None else None),
            "lba_never_written": self.lba_never_written,
            "client_latency_summary": self.client_latency_summary,
            "latency": self.latency,
            "per_client_ops": self.per_client_ops,
            "kv_ops": self.kv_ops,
            "attribution": self.attribution,
            "fleet": self.fleet,
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "ExperimentResult":
        """The result *record* (a :meth:`to_dict` with its samples)
        stands for; the keys derived from counters and spec go unread."""
        steady, histogram = record["steady"], record["lba_histogram"]
        return cls(**{
            **{f.name: record[f.name] for f in fields(cls) if f.name in record},
            "spec": ExperimentSpec.from_dict(record["spec"]),
            "samples": [Sample(**sample) for sample in record["samples"]],
            "steady": SteadySummary(**steady) if steady is not None else None,
            "lba_histogram": (np.asarray(histogram, dtype=np.int64)
                              if histogram is not None else None),
        })


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
    load = load_sequential(stack.stores, stack.router, workload)
    if not load.out_of_space:
        stack.drain()
    collector.start_measurement()
    if tracer is not None:
        tracer.enable()  # trace the measured phase only
    shards_base = stack.shard_snapshots()

    run_start = clock.now
    if load.out_of_space:
        # The measured phase never ran: nothing offered, nothing done.
        phase = (RunOutcome() if spec.arrival is None
                 else open_loop_outcome(spec.nshards))
    else:
        phase = run_measured_phase(spec, stack, collector, tracer)
        _close_series(collector, spec, clock, run_start)
    outcome = load if load.out_of_space else phase

    samples = collector.samples
    run_seconds = clock.now - run_start
    counters = stack.snapshot()
    if phase.fleet is not None:
        counters.update(FleetCounters.total(phase.fleet).labelled())
    fleet = None
    if spec.nshards > 1 or spec.arrival is not None:
        fleet = _fleet_summary(
            spec, phase, run_seconds,
            [ops_in(now) - ops_in(base) for now, base
             in zip(stack.shard_snapshots(), shards_base)])
    histogram = stack.shards[0].device.lba_histogram
    latencies = outcome.latencies
    recorded = latencies is not None and latencies.count() > 0
    return ExperimentResult(
        spec=spec,
        samples=samples,
        steady=summarize(samples) if samples else None,
        out_of_space=outcome.out_of_space,
        load_seconds=load.load_seconds,
        run_seconds=run_seconds,
        ops_issued=outcome.ops_issued,
        counters=counters,
        lba_histogram=histogram,
        lba_never_written=(float(np.count_nonzero(histogram == 0)) / histogram.size
                           if histogram is not None else None),
        client_latencies=latencies,
        client_latency_summary=latencies.summary() if recorded else None,
        latency=latencies.pooled_summary() if recorded else None,
        per_client_ops=outcome.per_client_ops,
        attribution=tracer.attribution.as_dict() if tracer is not None else None,
        fleet=fleet,
    )


def run_measured_phase(spec: ExperimentSpec, stack: Stack, collector,
                       tracer=None):
    """Drive *spec*'s measured phase on a loaded stack; the outcome.

    The one place a spec becomes a driver: a :class:`~repro.fleet.pool.
    FleetPool` over the stack's shard engines and router, whose source
    is the spec's closed-loop clients or, given an arrival process, its
    open-loop arrivals.  One client on one store reports per-client
    latencies and op counts only under ``driver="pool"``; more than
    one shard always reports them, so fleet results carry latencies at
    every depth.  Concurrency (more than one client, or arrivals) first
    switches every device to per-channel timing, here and nowhere else.
    The run stops once host writes reach ``duration_capacity_writes``
    device capacities, or at ``spec.max_ops``.  A mix of only gets and
    scans never moves the host-write counter, so without a ``max_ops``
    it gets the op budget a pure-update run would need to reach the
    write target.
    """
    target_bytes = int(spec.duration_capacity_writes * spec.capacity_bytes)
    max_ops = spec.max_ops
    if max_ops is None and spec.read_fraction + spec.scan_fraction >= 1.0:
        max_ops = max(1, target_bytes // max(spec.value_bytes, 1))
    if spec.nclients > 1 or spec.arrival is not None:
        stack.enable_channel_timing()
    arrival = None
    if spec.arrival is not None:
        arrival = make_arrival(spec.arrival, spec.arrival_rate,
                               rng_mod.substream(spec.seed, "arrival"))
    return FleetPool(
        stack.stores, stack.router, spec.workload(),
        nclients=spec.nclients, arrival=arrival, seed=spec.seed,
        stop_when=lambda: collector.host_bytes_written() >= target_bytes,
        sample_interval=spec.sample_interval, on_sample=collector.sample,
        max_ops=max_ops, queue_cap=spec.queue_cap,
        tracer=NULL_TRACER if tracer is None else tracer,
        kill_at=spec.kill_at, kill_shard=spec.kill_shard,
        retry_limit=spec.retry_limit,
        retry_backoff=spec.retry_backoff_ms / 1e3,
        op_timeout=(spec.op_timeout_ms / 1e3
                    if spec.op_timeout_ms is not None else None),
        per_client=(spec.nclients > 1 or spec.nshards > 1
                    or spec.driver == "pool"),
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
    latencies = outcome.latencies  # None when the phase never ran
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
