"""Per-LBA write histogram (the ``blktrace`` analogue, §4.3 / Fig 4).

The paper explains WiredTiger's low WA-D on a trimmed drive by tracing
the host write access pattern and observing that ~45% of the LBA space
is never written.  :class:`BlkTrace` records exactly that histogram so
:func:`repro.analysis.cdf.write_probability_cdf` can regenerate Fig 4.
"""

from __future__ import annotations

import numpy as np


class BlkTrace:
    """Counts writes per logical page over the device's address space."""

    def __init__(self, npages: int):
        self.npages = npages
        self._hist = np.zeros(npages, dtype=np.int64)
        self.total_write_requests = 0

    # BlockObserver interface -------------------------------------------------
    def on_write(self, t: float, start: int, npages: int, lpns: np.ndarray | None) -> None:
        if lpns is not None:
            np.add.at(self._hist, lpns, 1)
        else:
            self._hist[start : start + npages] += 1
        self.total_write_requests += 1

    # Queries ------------------------------------------------------------------
    @property
    def histogram(self) -> np.ndarray:
        """Write counts indexed by logical page (a copy)."""
        return self._hist.copy()

    def fraction_never_written(self) -> float:
        """Fraction of the LBA space with zero writes recorded."""
        return float(np.count_nonzero(self._hist == 0)) / self.npages
