"""FTL state under randomized write/trim churn (DESIGN.md §12).

Large invalidations fold the valid-count decrement and the
victim-index dedupe into one bincount pass; small ones run length by
length on Python ints.  Churn heavy enough to trigger garbage
collection drives both, checked two ways: the conservation laws after
every call (``check_invariants``: ``l2p``/``p2l`` inverse, valid
counts recomputed from ``p2l``, free list vs block states, victim
index) and a recorded digest of the final state arrays.

The digests were recorded at the commit that retired the per-occurrence
decrement twin of the bincount fold, where both produced them.  After a *deliberate* FTL behaviour change, regenerate from a
``PYTHONPATH=src python`` shell in the repo root::

    from tests.flash.test_ftl_kernels import DIGESTS, _digest, _drive
    print({seed: _digest(_drive(seed)) for seed in DIGESTS})
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.flash.config import SSDConfig
from repro.flash.ftl import FlashTranslationLayer

DIGESTS = {
    7: "2c9e201d87ea7ff5297471642c5272257d29bdb9bad965a2681a9a656f6e0304",
    19: "1c2957271a3b19cd25939462a646338d0a28dcf85393aa147ef3fb652e48d1d3",
    101: "74f08dd77388c4cd363ec4b22875bd3596669481d41b89bcb96e44d41130bf3a",
}


def _drive(seed: int, check: bool = False) -> FlashTranslationLayer:
    cfg = SSDConfig(nblocks=64, pages_per_block=32, hw_overprovision=0.25)
    rng = np.random.default_rng(seed)
    ftl = FlashTranslationLayer(cfg)
    n = cfg.logical_pages
    for _ in range(300):
        kind = int(rng.integers(0, 3))
        if kind == 0:  # scattered batch (compaction-sized when large)
            lpns = np.unique(rng.integers(0, n, size=int(rng.integers(1, 80))))
            ftl.write_pages(lpns.astype(np.int64))
        elif kind == 1:  # sequential range (flush/WAL shaped)
            start = int(rng.integers(0, n - 1))
            ftl.write_range(start, int(rng.integers(1, min(120, n - start) + 1)))
        else:
            start = int(rng.integers(0, n - 1))
            ftl.trim_range(start, int(rng.integers(1, min(60, n - start) + 1)))
        if check:
            ftl.check_invariants()
    return ftl


def _digest(ftl: FlashTranslationLayer) -> str:
    h = hashlib.sha256()
    # state_arrays() drains the write-behind log first; the block-state
    # arrays and the heads are only exact after that.
    for array in (*ftl.state_arrays(), ftl._state, ftl._closed_seq):
        h.update(array.tobytes())
    h.update(repr((sorted(ftl._heads.items()), ftl._seq)).encode())
    return h.hexdigest()


class TestFTLChurn:
    def test_invariants_hold_after_every_call(self):
        for seed in DIGESTS:
            ftl = _drive(seed, check=True)
            l2p, _, valid_count = ftl.state_arrays()
            assert int(valid_count.sum()) == int(np.count_nonzero(l2p >= 0))
            assert ftl.total_gc_pages > 0  # the churn did reach GC

    def test_final_state_matches_recorded_digest(self):
        for seed, digest in DIGESTS.items():
            assert _digest(_drive(seed)) == digest, seed
