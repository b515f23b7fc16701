"""The paper's measurement methodology as code (§3.3).

The collector samples exactly the five metrics the paper defines:

i.   KV-store throughput (operations per second);
ii.  device throughput as observed by the OS: like ``iostat``, a
     window's MB/s is the change of the block layer's cumulative byte
     counters between the two snapshots that bound it, over the virtual
     time between them;
iii. application-level write amplification WA-A = host bytes written /
     user bytes written (the paper's "user-level" WA, which factors in
     filesystem overhead);
iv.  device-level write amplification WA-D = flash bytes programmed /
     host bytes written (from SMART attributes);
v.   space amplification = disk utilization / dataset size.

Following §4.1's guideline, WA-A and WA-D are reported as *cumulative*
ratios (total bytes up to time t) to avoid windowing oscillations; a
windowed WA-D is also recorded because it is what explains throughput
inflections (e.g. WiredTiger's drop when garbage collection starts).

Multi-client runs additionally record a per-client latency series
(:class:`ClientLatencies`): the paper's single-thread methodology only
needs mean throughput, but under queue depth the *distribution* of
per-operation latency is the signal (DESIGN.md §4.4), so the client
pool feeds every completed operation's latency here and benchmarks
report percentiles per depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.core.stack import Stack

HOST_WRITTEN = "flash.host_bytes_written"
NAND_WRITTEN = "flash.nand_bytes_written"


class ClientLatencies:
    """Per-client operation latency series with percentile summaries."""

    def __init__(self, nclients: int):
        if nclients < 1:
            raise ConfigError("nclients must be >= 1")
        self._series: list[list[float]] = [[] for _ in range(nclients)]

    @property
    def nclients(self) -> int:
        """Number of client series being recorded."""
        return len(self._series)

    def record(self, client: int, latency: float) -> None:
        """Record one completed operation's latency for *client*."""
        self._series[client].append(latency)

    def sink(self, client: int) -> list[float]:
        """The mutable latency list for *client*.

        Batch drivers hand this directly to the KVStore batch methods'
        ``latencies`` parameter, so per-op latencies land here without
        a per-op Python call (DESIGN.md §7).
        """
        return self._series[client]

    def count(self, client: int | None = None) -> int:
        """Operations recorded for one client (or the whole pool)."""
        if client is not None:
            return len(self._series[client])
        return sum(len(series) for series in self._series)

    def series(self, client: int) -> np.ndarray:
        """One client's latencies in completion order."""
        return np.asarray(self._series[client], dtype=np.float64)

    def pooled(self) -> np.ndarray:
        """All clients' latencies, concatenated by client id."""
        if not self.count():
            return np.empty(0, dtype=np.float64)
        return np.concatenate([self.series(c) for c in range(self.nclients)])

    def percentile(self, q: float, client: int | None = None) -> float:
        """The q-th latency percentile, pooled or for one client."""
        data = self.pooled() if client is None else self.series(client)
        if not data.size:
            return 0.0
        return float(np.percentile(data, q))

    def mean(self, client: int | None = None) -> float:
        """Mean latency, pooled or for one client."""
        data = self.pooled() if client is None else self.series(client)
        return float(data.mean()) if data.size else 0.0

    def pooled_summary(self) -> dict[str, float]:
        """{ops, mean, p50, p95, p99} over all clients' ops together.

        This is the campaign table's tail-latency row source: pooled
        percentiles cannot be derived from the per-client rows of
        :meth:`summary`, so they are summarized here before a result
        is serialized.
        """
        data = self.pooled()
        if not data.size:
            return {"ops": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "ops": int(data.size),
            "mean": float(data.mean()),
            "p50": float(np.percentile(data, 50)),
            "p95": float(np.percentile(data, 95)),
            "p99": float(np.percentile(data, 99)),
        }

    def summary(self) -> list[dict[str, float]]:
        """Per-client {ops, mean, p50, p95, p99} rows (seconds)."""
        rows = []
        for client in range(self.nclients):
            data = self.series(client)
            rows.append({
                "client": client,
                "ops": int(data.size),
                "mean": float(data.mean()) if data.size else 0.0,
                "p50": float(np.percentile(data, 50)) if data.size else 0.0,
                "p95": float(np.percentile(data, 95)) if data.size else 0.0,
                "p99": float(np.percentile(data, 99)) if data.size else 0.0,
            })
        return rows


@dataclass
class Sample:
    """One point of the experiment time series."""

    t: float  # seconds since measurement start
    ops: int  # cumulative operations since measurement start
    kv_tput: float  # ops/s over the last window
    dev_write_mbps: float  # MB/s over the last window (decimal MB)
    dev_read_mbps: float
    wa_a: float  # cumulative application-level write amplification
    wa_d: float  # cumulative device-level write amplification
    wa_d_window: float  # windowed WA-D
    space_amp: float
    disk_utilization: float  # fraction of filesystem capacity in use
    host_bytes_cum: int  # host bytes written since the baseline


#: The four op counts of a snapshot (``kv.<kind>``).
KV_OPS = ("kv.puts", "kv.gets", "kv.deletes", "kv.scans")


def ops_in(snapshot: dict) -> int:
    """Total operations completed, from a counter snapshot."""
    return sum(snapshot[key] for key in KV_OPS)


@dataclass
class MetricsCollector:
    """Samples the five §3.3 metrics from the stack's counter snapshots."""

    stack: Stack
    dataset_bytes: int
    samples: list[Sample] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rebase()

    def _rebase(self) -> None:
        self._base = self._window = self.stack.snapshot()
        self._t_start = self._window_start = self.stack.clock.now

    def start_measurement(self) -> None:
        """Reset all baselines at the start of the measured phase.

        Cumulative WA-A/WA-D then cover exactly the measured workload
        (the paper's §4.1 guideline: cumulative ratios, not windows).
        On a trimmed drive WA-D still starts near 1 — the first
        measured writes land on clean blocks — reproducing the Fig 2
        shape without mixing the load phase into the ratios.
        """
        self._rebase()
        self.samples = []

    def sample(self) -> Sample:
        """Record one point of the time series."""
        now = self.stack.clock.now
        snap = self.stack.snapshot()
        total = {key: snap[key] - self._base[key] for key in snap}
        recent = {key: snap[key] - self._window[key] for key in snap}
        host, nand = total[HOST_WRITTEN], total[NAND_WRITTEN]
        window = max(now - self._window_start, 1e-9)

        point = Sample(
            t=now - self._t_start,
            ops=ops_in(total),
            kv_tput=ops_in(recent) / window,
            dev_write_mbps=recent["block.bytes_written"] / window / 1e6,
            dev_read_mbps=recent["block.bytes_read"] / window / 1e6,
            wa_a=host / max(total["kv.user_bytes_written"], 1),
            wa_d=nand / max(host, 1),
            wa_d_window=(recent[NAND_WRITTEN] / recent[HOST_WRITTEN]
                         if recent[HOST_WRITTEN] else 1.0),
            space_amp=snap["fs.used_bytes"] / max(self.dataset_bytes, 1),
            disk_utilization=snap["fs.used_pages"] / snap["fs.npages"],
            host_bytes_cum=host,
        )
        self.samples.append(point)
        self._window_start = now
        self._window = snap
        return point

    def host_bytes_written(self) -> int:
        """Host bytes written since the collector's baseline."""
        return sum(shard.ssd.smart.host_bytes_written
                   for shard in self.stack.shards) - self._base[HOST_WRITTEN]


def end_to_end_write_amplification(point) -> float:
    """WA-A x WA-D: application-to-flash-cell amplification (§4.2.ii),
    of a :class:`Sample` or a steady-state summary."""
    return point.wa_a * point.wa_d
