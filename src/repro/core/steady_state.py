"""Steady-state detection (pitfall 1, §4.1).

The paper advocates a holistic approach: a system is at steady state
once application throughput, WA-A *and* WA-D have all stopped
drifting, detected with CUSUM [Page 1954]; as a rule of thumb, the SSD
has reached steady state once cumulative host writes exceed three
times the drive capacity.

This module provides:

* :func:`cusum` — the classic two-sided tabular CUSUM;
* :func:`steady_start_index` — first sample index after which all the
  chosen metrics are CUSUM-quiet;
* :func:`three_times_capacity_rule` — the paper's rule of thumb;
* :func:`summarize` — steady-state averages of a sample series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import Sample
from repro.errors import ConfigError


#: CUSUM slack ``k`` and decision interval ``h``, in sigma units.
#: h=7 keeps the false-alarm rate on ~100-sample noise series around
#: 1% while still detecting 30% mean shifts with certainty (measured
#: empirically; see tests).
CUSUM_K = 0.5
CUSUM_H = 7.0


def cusum(values) -> list[int]:
    """Two-sided tabular CUSUM; returns alarm indices.

    *values* are standardized against their own mean/std, so
    :data:`CUSUM_K` and :data:`CUSUM_H` are in sigma units.
    """
    data = np.asarray(values, dtype=np.float64)
    if data.size == 0:
        return []
    std = float(data.std())
    if std == 0.0:
        return []
    z = (data - float(data.mean())) / std
    alarms: list[int] = []
    high = low = 0.0
    for idx, value in enumerate(z):
        high = max(0.0, high + value - CUSUM_K)
        low = max(0.0, low - value - CUSUM_K)
        if high > CUSUM_H or low > CUSUM_H:
            alarms.append(idx)
            high = low = 0.0
    return alarms


def series_is_steady(values) -> bool:
    """Whether a series shows no sustained drift.

    Three checks, in order:

    * a series whose total spread is within 5 % of its mean is steady
      regardless of CUSUM (CUSUM on near-constant data only amplifies
      noise);
    * a first-third vs last-third mean shift above 10 % is a drift —
      this catches short monotone ramps that CUSUM needs many samples
      to accumulate;
    * otherwise the series must be free of :func:`cusum` alarms.
    """
    data = np.asarray(values, dtype=np.float64)
    if data.size < 2:
        return True
    mean = float(np.abs(data).mean())
    if mean > 0 and float(data.max() - data.min()) <= 0.05 * mean:
        return True
    third = max(1, data.size // 3)
    head = float(data[:third].mean())
    tail = float(data[-third:].mean())
    scale = max(abs(head), abs(tail), 1e-12)
    if abs(tail - head) / scale > 0.10:
        return False
    return not cusum(data)


def steady_start_index(samples: list[Sample]) -> int | None:
    """First index such that throughput, WA-A and WA-D are all steady
    from there on (the paper's holistic criterion).

    Returns None when no suffix of at least eight samples is steady —
    i.e. the test was too short to report steady-state numbers, which
    is precisely pitfall 1.
    """
    n = len(samples)
    if n < 8:
        return None
    columns = [np.array([getattr(s, m) for s in samples])
               for m in ("kv_tput", "wa_a", "wa_d")]
    for start in range(0, n - 8 + 1):
        if all(series_is_steady(col[start:]) for col in columns):
            return start
    return None


def three_times_capacity_rule(host_bytes_written: int, capacity_bytes: int) -> bool:
    """§4.1's rule of thumb: steady once host writes >= 3x capacity."""
    if capacity_bytes <= 0:
        raise ConfigError("capacity must be positive")
    return host_bytes_written >= 3 * capacity_bytes


@dataclass
class SteadySummary:
    """Steady-state averages over the stable suffix of a run."""

    kv_tput: float
    dev_write_mbps: float
    dev_read_mbps: float
    wa_a: float
    wa_d: float
    space_amp: float
    disk_utilization: float
    start_index: int
    start_time: float
    detected: bool  # False = no steady suffix found; tail used instead


def summarize(samples: list[Sample]) -> SteadySummary:
    """Steady-state summary of a sample series.

    Uses CUSUM detection when possible and otherwise falls back to the
    trailing 30 % of the run (flagged via ``detected``).

    Rates are **time-weighted**: sampling windows are not equally long
    (a write stall stretches its window), so an unweighted mean of
    per-window rates would overweight short burst windows.  The
    weighted mean equals total-ops / total-time over the tail.
    """
    if not samples:
        raise ConfigError("cannot summarize an empty sample series")
    start = steady_start_index(samples)
    detected = start is not None
    if start is None:
        start = max(0, int(len(samples) * 0.7))
    tail = samples[start:]

    previous_t = samples[start - 1].t if start > 0 else 0.0
    times = np.array([previous_t] + [s.t for s in tail])
    weights = np.diff(times)
    if weights.sum() <= 0:
        weights = np.ones(len(tail))

    def weighted(field: str) -> float:
        values = np.array([getattr(s, field) for s in tail], dtype=np.float64)
        return float(np.average(values, weights=weights))

    return SteadySummary(
        kv_tput=weighted("kv_tput"),
        dev_write_mbps=weighted("dev_write_mbps"),
        dev_read_mbps=weighted("dev_read_mbps"),
        wa_a=tail[-1].wa_a,  # cumulative ratios: the last value is the summary
        wa_d=tail[-1].wa_d,
        space_amp=weighted("space_amp"),
        disk_utilization=weighted("disk_utilization"),
        start_index=start,
        start_time=tail[0].t,
        detected=detected,
    )
