"""CDF analysis of LBA write histograms (Fig 4 of the paper).

The paper plots the CDF of write probability with LBAs sorted by
decreasing write count: a curve reaching 1.0 before x = 1.0 means part
of the address space is never written (WiredTiger reaches 1.0 at
~0.55, i.e. ~45% of LBAs are never written, which acts as implicit
over-provisioning on a trimmed drive).
"""

from __future__ import annotations

import numpy as np


def write_probability_cdf(histogram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of the Fig-4 CDF over a per-LBA write histogram.

    ``x`` is the fraction of the LBA space (sorted by decreasing write
    count), ``y`` the cumulative fraction of all writes landing there.
    """
    hist = np.asarray(histogram, dtype=np.float64)
    total = hist.sum()
    n = len(hist)
    x = np.arange(1, n + 1) / n
    if total == 0:
        return x, np.zeros(n)
    ordered = np.sort(hist)[::-1]
    y = np.cumsum(ordered) / total
    return x, y


def coverage_fraction(histogram: np.ndarray) -> float:
    """Fraction of the LBA space written at least once."""
    hist = np.asarray(histogram)
    if len(hist) == 0:
        return 0.0
    return float(np.count_nonzero(hist)) / len(hist)


def cdf_knee(histogram: np.ndarray) -> float:
    """The x at which the CDF reaches 0.999 — the paper's dotted line
    marking where WiredTiger's curve saturates."""
    x, y = write_probability_cdf(histogram)
    idx = np.searchsorted(y, 0.999)
    if idx >= len(x):
        return 1.0
    return float(x[idx])

