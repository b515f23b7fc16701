"""``SSD`` under channel timing in lockstep with the naive timing model.

The device's channel paths take shortcuts the reference does not: an
O(1) write-cache admission check, lanes wrapped by subtraction, the
two per-lane costs computed once per request, running maxima.  The
reference (``naive_timing.py``, fed its flash work by ``naive_ftl.py``)
has none of them.  After *every* request the two must agree with
``==`` on the returned latency, both horizon vectors and the striping
cursor, on 1, 3, 8 and 16 channels.  Write and read sizes are drawn
around the channel count (1, C-1, C, C+1, 2C) as well as freely, and
a prefilled device makes GC relocations and erases part of the work.

CI runs this file under the derandomized ``ci`` hypothesis profile
(``tests/conftest.py``): ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.clock import VirtualClock
from repro.flash.ssd import SSD
from tests.conftest import make_tiny_config
from tests.flash.naive_ftl import NaiveFTL
from tests.flash.naive_timing import NaiveTiming

LOGICAL = make_tiny_config().logical_pages  # 768 pages in 32-page blocks

# A size is ``max(1, multiple * C + offset)``: the striping shapes
# around the channel count, or a free size (multiple 0).
size = st.one_of(
    st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 0)]),
    st.integers(1, 48).map(lambda n: (0, n)),
)
lpn = st.integers(0, LOGICAL - 1)
op = st.one_of(
    st.tuples(st.just("range"), lpn, size, st.booleans()),
    st.tuples(st.just("pages"), st.lists(lpn, min_size=1, max_size=40, unique=True),
              st.booleans()),
    st.tuples(st.just("read"), lpn, size),
    # Virtual time passes in steps of 10 us, up to a few cache windows.
    st.tuples(st.just("advance"), st.integers(0, 400)),
    st.tuples(st.just("settle")),
)
stream = st.fixed_dictionaries(dict(
    ops=st.lists(op, min_size=10, max_size=120),
    prefill=st.booleans(),  # start full: every write can relocate and erase
    fold_penalty=st.sampled_from([1.0, 3.0]),  # the SLC fold trigger in play
))


def run_lockstep(nchannels, ops, prefill=False, fold_penalty=1.0):
    config = make_tiny_config(channels=nchannels, fold_penalty=fold_penalty)
    clock = VirtualClock()
    ssd = SSD(config, clock)
    ssd.enable_channel_timing()
    ftl, timing = NaiveFTL(config), NaiveTiming(config)
    if prefill:
        ops = [("range", 0, (0, LOGICAL), True)] + list(ops)
    for kind, *args in ops:
        now = clock.now
        if kind == "advance":
            clock.advance(args[0] * 1e-5)
            continue
        if kind == "settle":
            ssd.settle()
            timing.settle(now)
            continue
        if kind == "pages":
            lpns, background = args
            got = ssd.write_pages(np.array(lpns, dtype=np.int64), background)
            want = timing.write(now, len(lpns), ftl.write(lpns), background)
        else:
            first, (multiple, offset) = args[:2]
            npages = min(max(1, multiple * nchannels + offset), LOGICAL - first)
            if kind == "read":
                got = ssd.read_range(first, npages)
                want = timing.read(now, first, npages)
            else:
                background = args[2]
                got = ssd.write_range(first, npages, background)
                work = ftl.write(list(range(first, first + npages)))
                want = timing.write(now, npages, work, background)
        channels = ssd._channels
        assert got == want
        assert channels.busy == timing.busy
        assert channels.write_busy == timing.write_busy
        assert channels.cursor == timing.cursor
        assert channels.busy_max == max(timing.busy)
        assert channels.write_max == max(timing.write_busy)
    return ssd


@pytest.mark.parametrize("nchannels", [1, 3, 8, 16])
@settings(deadline=None)
@given(stream=stream)
# A write of exactly C pages moves the cursor by one, not by C.
@example(stream=dict(ops=[("range", 0, (1, 0), True), ("range", 0, (0, 1), True),
                          ("range", 5, (2, 0), False)],
                     prefill=False, fold_penalty=1.0))
# A foreground write behind more than a cache window of queued work.
@example(stream=dict(ops=[("range", 0, (0, 48), True), ("range", 48, (0, 48), True),
                          ("range", 96, (0, 3), False), ("advance", 5),
                          ("range", 7, (1, 1), False)],
                     prefill=False, fold_penalty=3.0))
def test_lockstep_with_naive_timing(nchannels, stream):
    run_lockstep(nchannels, **stream)


@pytest.mark.parametrize("nchannels", [1, 3, 8, 16])
def test_gc_churn_in_lockstep(nchannels):
    """Overwrites of a full device at every striping shape, with reads
    wider than the array and time passing: GC erases land on the
    cursor channel hundreds of times."""
    rng = np.random.default_rng(nchannels)
    shapes = [(0, 1), (1, -1), (1, 0), (1, 1), (2, 0)]
    ops = []
    for i in range(500):
        shape = shapes[i % len(shapes)]
        where = int(rng.integers(0, LOGICAL))
        ops.append(("range", where, shape, bool(i % 3)))
        if i % 4 == 0:
            ops.append(("read", where, (2, 3)))
        ops.append(("advance", int(rng.integers(0, 60))))
    ssd = run_lockstep(nchannels, ops, prefill=True, fold_penalty=3.0)
    assert ssd.smart.blocks_erased > 50
    assert ssd.smart.fold_events > 0
