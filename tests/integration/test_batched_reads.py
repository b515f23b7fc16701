"""Native batched read/scan paths vs per-op calls (DESIGN.md §7.3).

``get_many`` / ``scan_many`` are natively batched in both engines as
of PR 4 (bulk bloom probes and amortized manifest lookups for the LSM,
sorted-snapshot cursor reuse for LSM scans, cached-leaf descent reuse
for the B+Tree).  These tests drive the batch methods directly against
a twin store serving one per-op call at a time and require
bit-identical clocks, stats, and SMART counters — including under
``until`` cuts and interleaved writes that invalidate the reuse
cursors.  A scan's per-op and batch calls share their loop, so on the
LSM every per-op scan is also held to ``reference_reads.scan``: the
pairs it returns and the reads it pays.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.kv.values import value_for
from repro.workload.spec import WorkloadSpec
from tests.lsm import reference_reads
from tests.lsm.test_scan_kernel import record_reads
from tests.workload.test_batched_runner import make_store
from repro.workload.runner import load_sequential

ENGINES = ("lsm", "btree")


def twin_stores(engine: str, nkeys: int = 300, value_bytes: int = 120):
    spec = WorkloadSpec(nkeys=nkeys, value_bytes=value_bytes)
    a, ssd_a = make_store(engine)
    b, ssd_b = make_store(engine)
    load_sequential(a, spec)
    load_sequential(b, spec)
    return (a, ssd_a), (b, ssd_b)


def checked_scan(store, reads: list | None, start: int, count: int) -> None:
    """One per-op scan; with *reads* (``record_reads`` of an LSM
    store) it must return and pay what the reference says."""
    if reads is None:
        store.scan(start, count)
        return
    pairs, expected = reference_reads.scan(store, start, count)
    mark = len(reads)
    assert store.scan(start, count)[1] == pairs
    assert reads[mark:] == expected


def assert_twins_equal(a, ssd_a, b, ssd_b):
    assert a.clock.now == b.clock.now
    assert asdict(a.stats.snapshot()) == asdict(b.stats.snapshot())
    assert ssd_a.smart.as_dict() == ssd_b.smart.as_dict()


@pytest.mark.parametrize("engine", ENGINES)
def test_get_many_equivalent(engine):
    (a, ssd_a), (b, ssd_b) = twin_stores(engine)
    rng = np.random.default_rng(3)
    # Mix of present, repeated, and absent keys (bloom negatives).
    keys = np.concatenate([
        rng.integers(0, 300, size=100),
        np.array([5, 5, 5, 10_000, 20_000]),
    ]).astype(np.int64)
    latencies: list[float] = []
    for key in keys:
        a.get(int(key))
    done = b.get_many(keys, latencies=latencies)
    assert done == len(keys)
    assert len(latencies) == done
    assert_twins_equal(a, ssd_a, b, ssd_b)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("count", (1, 17))
def test_scan_many_equivalent(engine, count):
    (a, ssd_a), (b, ssd_b) = twin_stores(engine)
    rng = np.random.default_rng(4)
    starts = np.concatenate([
        rng.integers(0, 300, size=60),
        np.array([0, 299, 299, 10_000]),  # edges + past-the-end
    ]).astype(np.int64)
    latencies: list[float] = []
    reads = record_reads(a) if engine == "lsm" else None
    for start in starts:
        checked_scan(a, reads, int(start), count)
    done = b.scan_many(starts, count, latencies=latencies)
    assert done == len(starts)
    assert len(latencies) == done
    assert_twins_equal(a, ssd_a, b, ssd_b)


@pytest.mark.parametrize("engine", ENGINES)
def test_reads_interleaved_with_writes_stay_equivalent(engine):
    """Cursor/snapshot reuse must survive interleaved mutations:
    snapshots are per-call and the B+Tree leaf cursor revalidates, so
    alternating write and read batches stay bit-identical."""
    (a, ssd_a), (b, ssd_b) = twin_stores(engine)
    reads = record_reads(a) if engine == "lsm" else None
    rng = np.random.default_rng(5)
    version = 1
    for round_id in range(4):
        wkeys = rng.integers(0, 300, size=32).astype(np.int64)
        for key in wkeys:
            value = value_for(int(key), version, 120)
            a.put(int(key), value)
            b.put(int(key), value)
        gkeys = rng.integers(0, 320, size=24).astype(np.int64)
        skeys = rng.integers(0, 320, size=8).astype(np.int64)
        for key in gkeys:
            a.get(int(key))
        for start in skeys:
            checked_scan(a, reads, int(start), 11)
        assert b.get_many(gkeys) == len(gkeys)
        assert b.scan_many(skeys, 11) == len(skeys)
        # Deletes can unlink B+Tree leaves; the stale read cursor must
        # revalidate, never resurrect.
        dkeys = rng.integers(0, 300, size=8).astype(np.int64)
        for key in dkeys:
            a.delete(int(key))
        assert b.delete_many(dkeys) == len(dkeys)
        assert_twins_equal(a, ssd_a, b, ssd_b)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("method", ("get_many", "scan_many"))
def test_until_cuts_after_crossing_op(engine, method):
    (_a, _ssd_a), (b, _ssd_b) = twin_stores(engine)
    keys = np.arange(40, dtype=np.int64)
    until = b.clock.now + 1e-12  # crossed by the very first op
    if method == "get_many":
        assert b.get_many(keys, until=until) == 1
        assert b.get_many(keys[1:]) == 39
    else:
        assert b.scan_many(keys, 5, until=until) == 1
        assert b.scan_many(keys[1:], 5) == 39


def test_lsm_bulk_and_lazy_probe_paths_agree():
    """The vectorized pre-planned path (large batch, float until) and
    the lazy per-op path (live until proxy) must produce identical
    results — they share the bloom/range verdict definitions."""
    spec = WorkloadSpec(nkeys=300, value_bytes=120)
    a, ssd_a = make_store("lsm")
    b, ssd_b = make_store("lsm")
    load_sequential(a, spec)
    load_sequential(b, spec)

    class NeverUntil:
        """A live (non-float) bound that never stops the batch."""

        def __le__(self, now):
            return False

        def __ge__(self, now):
            return True

    keys = np.concatenate([
        np.arange(0, 80, dtype=np.int64),
        np.array([10_000, 20_000], dtype=np.int64),
    ])
    assert a.get_many(keys) == len(keys)  # bulk pre-planned
    assert b.get_many(keys, until=NeverUntil()) == len(keys)  # lazy
    assert a.clock.now == b.clock.now
    assert asdict(a.stats.snapshot()) == asdict(b.stats.snapshot())
    assert ssd_a.smart.as_dict() == ssd_b.smart.as_dict()
