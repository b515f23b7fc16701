"""Both ``SSD`` timelines in lockstep with the naive timing models.

The device's timelines take shortcuts the references do not: an O(1)
write-cache admission check and fold trigger, lanes wrapped by
subtraction, the two per-lane costs computed once per request, running
maxima, a per-length memo for scalar read batches.  The references
(``naive_timing.py``, fed their flash work by ``naive_ftl.py``) have
none of them.  Every stream runs twice, once from each timeline; a
scalar run may switch to channel timing midway (``switch_at``), which
must carry the horizon over.  After *every* request the device and its
reference must agree with ``==`` on the returned latency, the write
backlog, the drain wait, the fold trigger at several thresholds, the
SLC fold count and the horizons themselves (channel timing: both
horizon vectors and the striping cursor), on 1, 3, 8 and 16 channels.
Write and read sizes are drawn around the channel count (1, C-1, C,
C+1, 2C) as well as freely, and a prefilled device makes GC
relocations and erases part of the work.

CI runs this file under the derandomized ``ci`` hypothesis profile
(``tests/conftest.py``): ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.clock import VirtualClock
from repro.flash.ssd import SSD, ChannelTimeline, ScalarTimeline
from tests.conftest import make_tiny_config
from tests.flash.naive_ftl import NaiveFTL
from tests.flash.test_ftl_lockstep import disjoint_runs
from tests.flash.naive_timing import NaiveScalarTiming, NaiveTiming

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
    # One request of several disjoint runs, length 1 included.
    st.tuples(st.just("runs"),
              st.lists(st.tuples(lpn, st.one_of(st.just(1), st.integers(1, 16))),
                       min_size=1, max_size=10),
              st.booleans()),
    st.tuples(st.just("read"), lpn, size),
    # Virtual time passes in steps of 10 us, up to a few cache windows.
    st.tuples(st.just("advance"), st.integers(0, 400)),
    st.tuples(st.just("settle")),
    st.tuples(st.just("drain")),
)
stream = st.fixed_dictionaries(dict(
    ops=st.lists(op, min_size=10, max_size=120),
    prefill=st.booleans(),  # start full: every write can relocate and erase
    fold_penalty=st.sampled_from([1.0, 3.0]),  # the SLC fold trigger in play
    switch_at=st.one_of(st.none(), st.integers(0, 120)),  # enable channels here
))

#: ``backlog_exceeds`` is checked at these multiples of the cache
#: window (1.25 is the SLC fold trigger's).
THRESHOLDS = (0.0, 0.5, 1.25, 3.0)


def assert_agree(ssd: SSD, model, folds: int) -> None:
    """The device and its reference, at the current instant."""
    now = ssd.clock.now
    timeline = ssd._timeline
    backlog = model.backlog(now)
    assert ssd.backlog_seconds() == backlog
    assert timeline.drain_wait(now) == model.drain_wait(now)
    assert ssd.smart.fold_events == folds + model.fold_events
    window = ssd.config.cache_drain_window
    for k in THRESHOLDS:
        assert timeline.backlog_exceeds(now, k * window) == (backlog > k * window)
    if isinstance(model, NaiveTiming):
        assert isinstance(timeline, ChannelTimeline)
        assert timeline.busy == model.busy
        assert timeline.write_busy == model.write_busy
        assert timeline.cursor == model.cursor
        assert timeline.busy_max == max(model.busy)
        assert ssd.write_horizon == max(model.write_busy)
    else:
        assert isinstance(timeline, ScalarTimeline)
        assert ssd.write_horizon == model.busy


def run_lockstep(nchannels, ops, prefill=False, fold_penalty=1.0,
                 switch_at=None, channels=True):
    config = make_tiny_config(channels=nchannels, fold_penalty=fold_penalty)
    clock = VirtualClock()
    ssd = SSD(config, clock)
    ftl = NaiveFTL(config)
    if channels:
        ssd.enable_channel_timing()
        model = NaiveTiming(config)
    else:
        model = NaiveScalarTiming(config)
    folds = 0  # counted by a scalar reference since switched away from
    if prefill:
        ops = [("range", 0, (0, LOGICAL), True)] + list(ops)
    for i, (kind, *args) in enumerate(ops):
        now = clock.now
        if i == switch_at:
            ssd.enable_channel_timing()  # idempotent on a channel run
            if isinstance(model, NaiveScalarTiming):
                folds += model.fold_events
                model = NaiveTiming(config, start=max(model.busy, now))
            assert_agree(ssd, model, folds)
        if kind == "advance":
            clock.advance(args[0] * 1e-5)
        elif kind == "settle":
            ssd.settle()
            model.settle(now)
        elif kind == "drain":
            assert ssd.drain() == model.drain_wait(now)
        elif kind == "runs":
            drawn, background = args
            starts, lens = disjoint_runs(drawn, LOGICAL)
            lpns = [page for first, npages in zip(starts.tolist(), lens.tolist())
                    for page in range(first, first + npages)]
            got = ssd.write_runs(starts, lens, background)
            assert got == model.write(now, len(lpns), ftl.write(lpns), background)
        else:
            first, (multiple, offset) = args[:2]
            npages = min(max(1, multiple * nchannels + offset), LOGICAL - first)
            if kind == "read":
                (got,) = ssd.read_runs([first], [npages])
                want = model.read(now, first, npages)
            else:
                background = args[2]
                got = ssd.write_runs([first], [npages], background)
                work = ftl.write(list(range(first, first + npages)))
                want = model.write(now, npages, work, background)
            assert got == want
        assert_agree(ssd, model, folds)
    return ssd


@pytest.mark.parametrize("nchannels", [1, 3, 8, 16])
@settings(deadline=None)
@given(stream=stream)
# A write of exactly C pages moves the cursor by one, not by C.
@example(stream=dict(ops=[("range", 0, (1, 0), True), ("range", 0, (0, 1), True),
                          ("range", 5, (2, 0), False)],
                     prefill=False, fold_penalty=1.0, switch_at=None))
# A foreground write behind more than a cache window of queued work.
@example(stream=dict(ops=[("range", 0, (0, 48), True), ("range", 48, (0, 48), True),
                          ("range", 96, (0, 3), False), ("advance", 5),
                          ("range", 7, (1, 1), False)],
                     prefill=False, fold_penalty=3.0, switch_at=None))
# Work queued and then drained by the clock alone: every query is an
# exact 0.0, and so is the drain.
@example(stream=dict(ops=[("range", 2, (0, 10), True), ("read", 0, (0, 4)),
                          ("advance", 400), ("drain",)],
                     prefill=False, fold_penalty=1.0, switch_at=None))
# A switch to channel timing behind a live scalar horizon, then reads
# and a foreground write against the carried-over backlog.
@example(stream=dict(ops=[("range", 0, (0, 48), True), ("range", 48, (0, 48), True),
                          ("read", 3, (1, 1)), ("read", 3, (1, 1)),
                          ("range", 7, (1, 1), False), ("drain",)],
                     prefill=False, fold_penalty=3.0, switch_at=3))
def test_lockstep_with_naive_timing(nchannels, stream):
    run_lockstep(nchannels, **stream, channels=True)
    run_lockstep(nchannels, **stream, channels=False)


@pytest.mark.parametrize("nchannels", [1, 3, 8, 16])
def test_gc_churn_in_lockstep(nchannels):
    """Overwrites of a full device at every striping shape, with reads
    wider than the array and time passing: GC erases land on the
    cursor channel hundreds of times — on a channel timeline, on the
    scalar one, and on a scalar one switched halfway."""
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
    for channels, switch_at in ((True, None), (False, None), (False, len(ops) // 2)):
        ssd = run_lockstep(nchannels, ops, prefill=True, fold_penalty=3.0,
                           switch_at=switch_at, channels=channels)
        assert ssd.smart.blocks_erased > 50
        assert ssd.smart.fold_events > 0
