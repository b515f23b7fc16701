"""The ledger's vocabulary: eight workloads, six end-to-end metrics,
thirteen layers and the per-layer metric names.

Plain data.  Nothing here imports ``repro``: the orchestrator reads
this table without paying the import, and only the child process
turns a row into an ``ExperimentSpec``.  ``BENCHMARK.json`` at the
repo root repeats the names, units, bounds and ``why`` strings below;
``test_ledger.py`` fails when the two drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

MIB = 2**20

#: Fields every single-experiment workload shares (the paper's §3.2
#: procedure).  ``duration_capacity_writes`` is set out of reach so the
#: fixed ``max_ops`` budget is the binding stop and the simulated work
#: is identical on every commit.
COMMON = dict(
    ssd="ssd1",
    drive_state="trimmed",
    dataset_fraction=0.5,
    value_bytes=4000,
    distribution="uniform",
    sample_interval=0.5,
    duration_capacity_writes=1000.0,
)

#: What one execution of the reference kernel (``reference.py``) takes
#: on the box the baseline was recorded on when nothing disturbs it.
#: Host times are counted in kernel executions and reported as that
#: count times this constant: *reference seconds*, equal to undisturbed
#: wall seconds on that class of machine, proportional elsewhere.
REFERENCE_KERNEL_S = 240e-6

#: ``--quick`` divides every op budget by this and cuts the figure
#: sweep to QUICK_FIGURES.  For tests only; never a baseline.
QUICK_DIVISOR = 10
QUICK_FIGURES = ("fig2", "fig3")


@dataclass(frozen=True)
class Workload:
    """One row of the workload table.

    ``spec`` holds ``ExperimentSpec`` fields on top of :data:`COMMON`;
    ``None`` marks the figure sweep.  ``why`` is the one-line rationale
    copied into ``BENCHMARK.json``; ``sizes`` states dataset vs engine
    cache for the README table.
    """

    name: str
    why: str
    spec: dict | None
    sizes: str


WORKLOADS = (
    Workload(
        "lsm-update",
        "Paper Fig 2 on the LSM, ~20x longer so GC is steady (WA-D 2.3): the "
        "write tail WAL/flush/compaction -> fs.append -> allocator -> FTL "
        "program+GC does most of the work.",
        dict(engine="lsm", capacity_bytes=256 * MIB, max_ops=250_000,
             driver="inline"),
        "128 MiB dataset on 256 MiB; memtable 1 MiB",
    ),
    Workload(
        "btree-update",
        "Same device, opposite write pattern: journal + checkpoint write-back "
        "as small random overwrites; block/SSD/FTL call count dominates, "
        "fs+allocator do almost nothing.",
        dict(engine="btree", capacity_bytes=256 * MIB, max_ops=80_000,
             driver="inline"),
        "128 MiB dataset on 256 MiB; page cache 512 KiB (16 leaves)",
    ),
    Workload(
        "lsm-scanmix",
        "Reads beside writes on one engine (25% get, 25% scan(100), 50% put): "
        "merge-scan kernel and the per-table fs.pread chain, ~10 preads/op.",
        dict(engine="lsm", capacity_bytes=128 * MIB, read_fraction=0.25,
             scan_fraction=0.25, scan_length=100, max_ops=32_000),
        "64 MiB dataset on 128 MiB; no block cache (every probe is a pread)",
    ),
    Workload(
        "btree-scanmix",
        "The B+Tree side of the scan-mix comparison: leaf walk through a page "
        "cache far smaller than the 64 MiB dataset (paper sec. 3.1).",
        dict(engine="btree", capacity_bytes=128 * MIB, read_fraction=0.25,
             scan_fraction=0.25, scan_length=100, max_ops=80_000),
        "64 MiB dataset on 128 MiB; page cache 512 KiB (16 leaves)",
    ),
    Workload(
        "lsm-readonly",
        "100% get: bypasses allocator, FTL program and GC; the get_many "
        "probe-planning path. A write-tail optimisation must show no change "
        "here (control workload).",
        dict(engine="lsm", capacity_bytes=128 * MIB, read_fraction=1.0,
             max_ops=200_000),
        "64 MiB dataset on 128 MiB; bloom+index in memory, data uncached",
    ),
    Workload(
        "btree-pool16",
        "Closed loop, 16 clients on ClientPool + scheduler + per-channel SSD "
        "timing: the pooled-B+Tree-at-half-the-inline-rate cell; records "
        "simulated per-op latencies.",
        dict(engine="btree", capacity_bytes=256 * MIB, nclients=16,
             max_ops=60_000),
        "128 MiB dataset on 256 MiB; page cache 512 KiB; queue depth 16",
    ),
    Workload(
        "fleet-kill",
        "Open loop (poisson 3000 ops/s, 50% get) over 4 LSM shards with a "
        "shard kill at t=12 s: per-op service through FleetPool, admission, "
        "timeouts, WAL-replay recovery.",
        dict(engine="lsm", capacity_bytes=256 * MIB, nshards=4, router="hash",
             arrival="poisson", arrival_rate=3000.0, read_fraction=0.5,
             queue_cap=64, slo_ms=5.0, op_timeout_ms=50.0, kill_shard=1,
             kill_at=12.0, max_ops=100_000),
        "4 x 32 MiB datasets on 4 x 64 MiB shards; queue cap 64 per shard",
    ),
    Workload(
        "figures-small",
        "All ten FIGURES at SCALES['small'] in one process: what a user waits "
        "for (repro run-figure); campaign plumbing, steady-state detection, "
        "rendering; carries the accuracy metric.",
        None,
        "48 MiB devices, dataset 5%..88% of capacity, three SSD types",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    """A declared metric: name, unit, direction and (end-to-end only)
    the share of the parent's median it may worsen by."""

    name: str
    unit: str
    better: str
    bound: float | None = None


#: The six end-to-end metrics.  Every workload reports every one and
#: none is ever 0.  The bound is the share of the parent's value a
#: later change may worsen a metric by.  The three host-time metrics
#: carry the widest bound the benchmark contract allows: on the shared
#: 2-vCPU VM this was built on, identical runs drift by 10-20% over
#: minutes (README, "Noise"), and a bound inside that drift would
#: reject changes at random.  Memory repeats within 0.2%; the last two
#: are deterministic per seed, so 1% is "exact" for them (one lost
#: claim or ~1000 unserved ops moves them further).
E2E = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("host_ops_per_s", "ops/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
    Metric("served_frac", "fraction", "higher", 0.01),
    Metric("claims_held", "count", "higher", 0.01),
)

#: Layers in stack order; ``driver`` is the root remainder no probe
#: covers (runner loop, experiment assembly, figures, campaign,
#: analysis).
LAYERS = (
    "workload", "sim", "fleet", "lsm", "btree", "fs", "fs.alloc", "block",
    "flash.ssd", "flash.ftl", "flash.gc", "core", "driver",
)

#: Host-time metrics every layer reports from the traced pass.
LAYER_TIMING = (
    ("calls", "count", "lower"),
    ("self_s", "s", "lower"),
    ("self_share", "fraction", "lower"),
    ("self_us_per_op", "us/op", "lower"),
    ("setup_self_s", "s", "lower"),
)

#: Deterministic counts and ratios (exact compare between two runs of
#: one seed) plus the two trace-derived ratios and the overhead figure.
LAYER_COUNTS = (
    Metric("core.sim_kops", "kops/s", "higher"),
    Metric("core.sim_wa_a", "ratio", "lower"),
    Metric("core.sim_wa_d", "ratio", "lower"),
    Metric("core.sim_space_amp", "ratio", "lower"),
    Metric("core.sim_run_s", "s", "lower"),
    Metric("core.samples", "count", "higher"),
    Metric("lsm.compactions", "count", "lower"),
    Metric("lsm.fs_calls_per_op", "calls/op", "lower"),
    Metric("btree.block_calls_per_op", "calls/op", "lower"),
    Metric("block.write_reqs", "count", "lower"),
    Metric("block.read_reqs", "count", "lower"),
    Metric("block.pages_per_write_req", "pages/req", "higher"),
    Metric("flash.ssd.host_pages", "count", "lower"),
    Metric("flash.ssd.fold_events", "count", "lower"),
    Metric("flash.ssd.host_us_per_page", "us/page", "lower"),
    Metric("flash.ftl.nand_pages", "count", "lower"),
    Metric("flash.gc.reclaims", "count", "lower"),
    Metric("flash.gc.pages_moved", "count", "lower"),
    Metric("flash.gc.moved_per_reclaim", "pages", "lower"),
    Metric("sim.lat_p50_ms", "ms", "lower"),
    Metric("sim.lat_p99_ms", "ms", "lower"),
    Metric("sim.lat_samples", "count", "higher"),
    Metric("fleet.offered", "count", "higher"),
    Metric("fleet.rejected", "count", "lower"),
    Metric("fleet.timeouts", "count", "lower"),
    Metric("fleet.retries", "count", "lower"),
    Metric("fleet.lost_keys", "count", "lower"),
    Metric("fleet.slo_attainment", "fraction", "higher"),
    Metric("fleet.recovery_s", "s", "lower"),
    Metric("driver.trace_overhead_frac", "fraction", "lower"),
)

PER_LAYER = tuple(
    Metric(f"{layer}.{suffix}", unit, better)
    for layer in LAYERS for suffix, unit, better in LAYER_TIMING
) + LAYER_COUNTS
