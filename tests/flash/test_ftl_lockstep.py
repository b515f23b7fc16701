"""``FlashTranslationLayer`` in lockstep with the naive FTL (DESIGN.md §12.2).

The FTL's host-write path is write-behind: requests that fit the open
block sit on a log until something observes the mapping.  The
reference (``naive_ftl.py``) shares no code with it and applies every
page immediately, so agreement here is rightness, not sameness.  After
*every* call the two must agree on what never waits for the log — the
returned work, erase counts, free-block order, block states, WA-D —
and at drawn checkpoints (and at the end) on the drained mapping and
valid counts.  Checkpoints are drawn rather than taken every call
because reading the mapping drains the log: a stream observed after
every request would never hold two requests on it.

CI runs this file under the derandomized ``ci`` hypothesis profile
(``tests/conftest.py``): ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import DeviceFullError, OutOfRangeError
from repro.flash.ftl import FlashTranslationLayer
from repro.flash.gc import FifoPolicy, GreedyPolicy
from tests.conftest import make_tiny_config
from tests.flash.naive_ftl import NaiveFTL

LOGICAL = make_tiny_config().logical_pages  # 768 pages in 32-page blocks


POLICIES = {"greedy": GreedyPolicy, "fifo": FifoPolicy}

lpn = st.integers(0, LOGICAL - 1)
# Whether the drained state is compared after this op (one op in eight).
check = st.integers(0, 7).map(lambda v: v == 0)
op = st.one_of(
    st.tuples(st.just("range"), lpn, st.integers(1, 8), check),
    st.tuples(st.just("range"), lpn, st.integers(9, 120), check),
    # One page rewritten over and over inside one open block: the
    # journal page (23 records of a 128-byte value share a page).
    st.tuples(st.just("journal"), lpn, st.integers(2, 23), check),
    # Exactly fill the open block (extra 0) or straddle its end.
    st.tuples(st.just("fill"), lpn, st.integers(0, 40), check),
    st.tuples(st.just("pages"), st.lists(lpn, min_size=1, max_size=80, unique=True),
              st.booleans(), check),
    st.tuples(st.just("trim"), lpn, st.integers(1, 60), check),
)
stream = st.fixed_dictionaries(dict(
    ops=st.lists(op, min_size=20, max_size=200),
    # A narrow address window makes overwrites inside one open block,
    # and trims that land on still-logged pages, the common case.
    window=st.sampled_from([8, 64, LOGICAL]),
    prefill=st.booleans(),  # start full: GC-heavy churn from the first op
    policy=st.sampled_from(sorted(POLICIES)),
))


def assert_same_state(ftl: FlashTranslationLayer, naive: NaiveFTL) -> None:
    l2p, p2l, valid_count = ftl.state_arrays()
    assert {i: p for i, p in enumerate(l2p.tolist()) if p >= 0} == naive.l2p
    assert {p: i for p, i in enumerate(p2l.tolist()) if i >= 0} == naive.p2l
    assert valid_count.tolist() == [naive.valid_in(b) for b in range(naive.nblocks)]


def run_lockstep(ops, window=LOGICAL, prefill=False, policy="greedy"):
    config = make_tiny_config()
    ftl = FlashTranslationLayer(config, POLICIES[policy]())
    naive = NaiveFTL(config, fifo=policy == "fifo")
    if prefill:
        ops = [("range", 0, LOGICAL, True)] + list(ops)
    for kind, where, arg, checked in ops:
        if kind == "pages":
            lpns = np.array(list(dict.fromkeys(v % window for v in where)))
            expected = naive.write(lpns.tolist())
            work = ftl.write_pages(lpns)
            if arg:  # the caller reuses its buffer after the call
                lpns[:] = 0
            steps = [(work, expected)]
        else:
            start = where % window
            if kind == "journal":
                requests = [(start, 1)] * arg
            elif kind == "fill":
                head = naive.heads["cold"]
                room = naive.ppb - head[1] if head else 0
                requests = [(start, max(1, room + arg))]
            else:
                requests = [(start, arg)]
            steps = []
            for first, npages in requests:
                npages = min(npages, LOGICAL - first)
                if kind == "trim":
                    assert ftl.trim_range(first, npages) == naive.trim(first, npages)
                else:
                    steps.append((ftl.write_range(first, npages),
                                  naive.write(list(range(first, first + npages)))))
        for work, expected in steps:
            assert astuple(work) == expected
        assert ftl.erase_counts.tolist() == naive.erase_counts
        assert ftl._free == naive.free
        assert ftl._state.tolist() == naive.state
        assert ftl.device_write_amplification() == naive.wa_d()
        if checked:
            assert_same_state(ftl, naive)
    assert_same_state(ftl, naive)
    ftl.check_invariants()
    return ftl


@settings(deadline=None)
@given(stream)
# 23 journal records on one page, then the page's neighbours.
@example(dict(ops=[("range", 0, 8, False), ("journal", 3, 23, False),
                   ("range", 2, 4, False)],
              window=LOGICAL, prefill=False, policy="greedy"))
# Exactly fill the open block, keep logging into the next one.
@example(dict(ops=[("range", 5, 3, False), ("fill", 100, 0, False),
                   ("range", 5, 3, False), ("fill", 100, 0, False),
                   ("journal", 5, 4, False)],
              window=LOGICAL, prefill=True, policy="greedy"))
# Straddle a block boundary with logged overwrites of the same pages pending.
@example(dict(ops=[("range", 10, 6, False), ("range", 12, 6, False),
                   ("fill", 8, 11, False), ("range", 10, 6, False)],
              window=LOGICAL, prefill=True, policy="fifo"))
# A trim landing on still-logged pages; a caller that reuses its buffer.
@example(dict(ops=[("pages", [4, 9, 2, 7], True, False), ("range", 0, 8, False),
                   ("trim", 2, 5, False), ("pages", [3, 4, 5], True, False)],
              window=LOGICAL, prefill=False, policy="greedy"))
def test_lockstep_with_naive_ftl(stream):
    run_lockstep(**stream)


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_gc_heavy_churn_in_lockstep(policy):
    """Small overwrites of a full device: hundreds of block closes and
    reclaims with the log in play on every one of them."""
    rng = np.random.default_rng(5)
    ops = [("range", int(rng.integers(0, LOGICAL)), int(rng.integers(1, 9)),
            i % 50 == 0) for i in range(600)]
    ftl = run_lockstep(ops, prefill=True, policy=policy)
    assert ftl.total_erases > 50


class TestTheLog:
    def test_write_range_equals_write_pages(self):
        config = make_tiny_config()
        ranged = FlashTranslationLayer(config)
        paged = FlashTranslationLayer(config)
        rng = np.random.default_rng(11)
        for _ in range(400):
            npages = int(rng.integers(1, 48))
            start = int(rng.integers(0, LOGICAL - npages))
            assert ranged.write_range(start, npages) == \
                paged.write_pages(np.arange(start, start + npages))
        for mine, theirs in zip(ranged.state_arrays(), paged.state_arrays()):
            assert np.array_equal(mine, theirs)
        assert ranged._free == paged._free and ranged._heads == paged._heads

    def test_log_owns_its_pages(self):
        """The block layer hands the caller's array through as it is;
        mutating it after the call must not reach the log."""
        ftl = FlashTranslationLayer(make_tiny_config())
        ftl.write_range(0, 4)  # opens a block: what follows is logged
        lpns = np.array([10, 11, 12], dtype=np.int64)
        ftl.write_pages(lpns)
        lpns[:] = 500
        assert [ftl.is_mapped(p) for p in (10, 11, 12, 500)] == [True] * 3 + [False]
        ftl.check_invariants()

    def test_out_of_range_request_logs_nothing(self):
        ftl = FlashTranslationLayer(make_tiny_config())
        ftl.write_range(0, 4)
        ftl.write_range(2, 4)  # logged
        for bad in (lambda: ftl.write_range(LOGICAL - 1, 2),
                    lambda: ftl.write_range(-1, 2),
                    lambda: ftl.write_pages(np.array([6, LOGICAL])),
                    lambda: ftl.write_pages([-1])):
            with pytest.raises(OutOfRangeError):
                bad()
        assert ftl.total_host_pages == 8
        assert ftl.mapped_pages == 6
        assert not ftl.is_mapped(6) and not ftl.is_mapped(LOGICAL - 1)
        ftl.check_invariants()

    def test_device_full_leaves_drained_state_consistent(self):
        """Grown-bad blocks eat the spare: the request that must close
        the open block finds nothing to open.  What was logged before it
        is applied and counted; the failed request is not counted."""
        ftl = FlashTranslationLayer(make_tiny_config())
        while ftl.retire_free_block():
            pass
        written = 0
        with pytest.raises(DeviceFullError):
            for start in range(0, LOGICAL, 5):
                for npages in (5, 2):  # the second overwrites the first
                    ftl.write_range(start, npages)
                    written += npages
        assert ftl.total_host_pages == written
        assert ftl.mapped_pages >= 5 * (written // 7)
        ftl.check_invariants()
