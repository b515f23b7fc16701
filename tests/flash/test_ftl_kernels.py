"""FTL state under randomized write/trim churn (DESIGN.md §12).

Large invalidations fold the valid-count decrement and the
victim-index dedupe into one bincount pass; small ones run length by
length on Python ints.  Churn heavy enough to trigger garbage
collection drives both, checked two ways: the conservation laws after
every call (``check_invariants``: ``l2p``/``p2l`` inverse, valid
counts recomputed from ``p2l``, free list vs block states, victim
index) and a recorded digest of the final state arrays.

The digests were first recorded at the commit that retired the
per-occurrence decrement twin of the bincount fold, where both
produced them.  They were re-pinned once, when the two always-idle
stream-separation heads ("hot", "gc2") left the FTL: the recipe now
hashes only the "cold" and "gc" heads, and gives the same three
digests on the FTL before and after that deletion.  After a
*deliberate* FTL behaviour change, regenerate from a
``PYTHONPATH=src python`` shell in the repo root::

    from tests.flash.test_ftl_kernels import DIGESTS, _digest, _drive
    print({seed: _digest(_drive(seed)) for seed in DIGESTS})
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.flash.config import SSDConfig
from repro.flash.ftl import FlashTranslationLayer
from tests.conftest import one_page_runs

DIGESTS = {
    7: "96e555d65b67b9a4b90c5d976a7175b2e16753815f30bb941489c8dfc11044ae",
    19: "e80a8300d6293298e9565cb4efd56f314148d55a391dbc7450b91a230992a5b3",
    101: "da441d8e9f71239cb677fe51f10075f73991151486d856acab1d67272aaae306",
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
            ftl.write_runs(*one_page_runs(lpns.astype(np.int64)))
        elif kind == 1:  # sequential range (flush/WAL shaped)
            start = int(rng.integers(0, n - 1))
            ftl.write_runs([start], [int(rng.integers(1, min(120, n - start) + 1))])
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
    heads = [(name, ftl._heads[name]) for name in ("cold", "gc")]
    h.update(repr((heads, ftl._seq)).encode())
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
