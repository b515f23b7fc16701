"""The manifest's read index vs the per-op read path (DESIGN.md §13.2).

``get_many`` plans a batch through ``Version.plan_reads`` and replays
flat rows of preads; ``get()`` walks ``_find`` table by table.  Twin
stores hold the identical tree: one serves batches, the other per-op
gets, and everything observable must match exactly — per-op latencies,
the clock, ``KVStats``, the SMART read counters and the ``fs.pread``
call sequence — and must be what ``reference_reads.get`` says a get
returns and pays.  Also pins the index's per-level invalidation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.block.device import BlockDevice
from repro.core.clock import VirtualClock
from repro.errors import NoSpaceError
from repro.flash.ssd import SSD
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.values import Value
from repro.lsm.config import LSMConfig
from repro.lsm.memtable import KIND_DELETE, KIND_PUT
from repro.lsm.store import LSMStore
from tests.conftest import make_tiny_config
from tests.lsm import reference_reads, test_scan_kernel
from tests.lsm.test_scan_kernel import install_tree, populate

KEYSPACE = 300
#: Tombstones, sub-block values, and values larger than a 4 KiB block.
VLENS = (24, 40, 700, 4100, 9000)


def random_entries(rng, lo: int, hi: int) -> tuple:
    """A table's (keys, kinds, vlens): a random subset of [lo, hi]."""
    pool = np.arange(lo, hi + 1)
    keys = np.sort(rng.choice(pool, size=int(rng.integers(1, min(len(pool), 30) + 1)),
                              replace=False))
    kinds = np.where(rng.random(len(keys)) < 0.2, KIND_DELETE, KIND_PUT)
    vlens = np.where(kinds == KIND_PUT, rng.choice(VLENS, size=len(keys)), 0)
    return keys.tolist(), kinds.tolist(), vlens.tolist()


def random_tree(seed: int) -> dict:
    """A tree shape as plain data, so twins are built identically.

    Up to four L0 tables with overlapping ranges, at least three
    non-empty sorted levels (the rest stay empty) whose tables leave
    gaps between and around their ranges, an immutable and an active
    memtable.
    """
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(int(rng.integers(0, 5))):
        lo, hi = np.sort(rng.integers(0, KEYSPACE, size=2)).tolist()
        tables.append((0, random_entries(rng, lo, hi)))
    for level in rng.choice(np.arange(1, 7), size=int(rng.integers(3, 6)),
                            replace=False).tolist():
        cuts = np.sort(rng.choice(KEYSPACE, size=2 * int(rng.integers(1, 5)),
                                  replace=False)).tolist()
        for lo, hi in zip(cuts[::2], cuts[1::2]):
            tables.append((level, random_entries(rng, lo, hi)))
    memtables = [random_entries(rng, 0, KEYSPACE - 1) if rng.random() < 0.7
                 else ([], [], []) for _ in range(2)]
    return {"tables": tables, "memtables": memtables}


def make_store(**config_overrides) -> LSMStore:
    clock = VirtualClock()
    ssd = SSD(make_tiny_config(nblocks=128), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    return LSMStore(fs, clock, LSMConfig(**config_overrides))


def build_store(tree: dict, bloom_bits: int) -> LSMStore:
    return install_tree(make_store(bloom_bits_per_key=bloom_bits), tree)


def record_preads(store: LSMStore, fail_at: int | None = None) -> list:
    """Log every ``fs.pread``; raise ENOSPC on call number *fail_at*."""
    calls: list = []
    inner = store.fs.pread

    def pread(name, offset, nbytes):
        if len(calls) == fail_at:
            raise NoSpaceError("injected")
        calls.append((name, offset, nbytes))
        return inner(name, offset, nbytes)

    store.fs.pread = pread
    return calls


def get_per_op(store: LSMStore, keys, until=None, latencies=None,
               values=None) -> int:
    """One ``get()`` per key, the batch API's contract."""
    done = 0
    for key in keys:
        latency, value = store.get(key)
        latencies.append(latency)
        if values is not None:
            values.append(value)
        done += 1
        if until is not None and store.clock.now >= until:
            break
    return done


def state(store: LSMStore) -> tuple:
    smart = store.fs.device.ssd.smart
    return (store.clock.now, store.stats.snapshot(), smart.host_bytes_read,
            smart.host_read_requests)


class TestLockstep:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        # 0: filter ablation; 2: k=1, most absent keys pass the filter.
        bloom_bits=st.sampled_from([0, 2, 10]),
        batches=st.lists(
            st.tuples(
                st.lists(st.integers(-10, KEYSPACE + 10), min_size=1,
                         max_size=80),
                # Share of the batch's own device time after which
                # `until` cuts it short (None: run to completion).
                st.one_of(st.none(), st.floats(0.0, 1.0))),
            min_size=1, max_size=4),
    )
    def test_batches_match_per_op_gets(self, seed, bloom_bits, batches):
        tree = random_tree(seed)
        bulk = build_store(tree, bloom_bits)
        twin = build_store(tree, bloom_bits)
        bulk_preads, twin_preads = record_preads(bulk), record_preads(twin)
        for keys, cut in batches:
            until = None
            if cut is not None:
                until = bulk.clock.now + cut * len(keys) * 200e-6
            expected = [reference_reads.get(twin, key) for key in keys]
            mark, before = len(twin_preads), twin.stats.user_bytes_read
            bulk_lat: list = []
            twin_lat: list = []
            values: list = []
            done = get_per_op(twin, keys, until, twin_lat, values)
            assert bulk.get_many(keys, until, bulk_lat) == done
            assert bulk_lat == twin_lat
            assert state(bulk) == state(twin)
            assert bulk_preads == twin_preads
            # Third leg: what each get returns and pays.
            assert values == [value for value, _reads in expected[:done]]
            assert twin_preads[mark:] == [
                read for _value, reads in expected[:done] for read in reads]
            assert twin.stats.user_bytes_read - before == sum(
                twin.config.key_bytes + value.length for value in values
                if value is not None)
        bulk.check_invariants()

    def test_false_positives_charge_entry_zero(self):
        """Without filters every in-range absent key pays one read of
        the table's first block per level — and the plan says so."""
        tree = {"tables": [(1, ([10, 20, 30], [KIND_PUT] * 3, [9000] * 3)),
                           (2, ([5, 25, 40], [KIND_PUT] * 3, [40] * 3))],
                "memtables": [([], [], []), ([], [], [])]}
        store = build_store(tree, bloom_bits=0)
        preads = record_preads(store)
        keys = [15, 25, 4, 41, 35, 20, 15, 15]
        expected = [reference_reads.get(store, key) for key in keys]
        assert store.get_many(keys) == len(keys)
        assert preads == [read for _value, reads in expected for read in reads]
        assert [value is not None for value, _reads in expected] == [
            key in (25, 20) for key in keys]
        first, second = (t.filename for _lvl, t in store.version.all_tables())
        miss = [(first, 0, 9040), (second, 0, 240)]
        assert preads == (
            miss                      # 15: absent, inside both ranges
            + [miss[0], (second, 0, 240)]   # 25: L1 false positive, L2 hit
            + []                      # 4, 41: outside every range
            + [(second, 0, 240)]      # 35: only inside L2's range
            + [(first, 8192, 9888)]   # 20: L1 hit, block-aligned start
            + miss + miss)
        assert store.stats.user_bytes_read == (16 + 40) + (16 + 9000)

    @pytest.mark.parametrize("fail_at", [0, 3, 11])
    def test_pread_fault_mid_batch(self, fail_at):
        tree = random_tree(7)
        keys = list(range(0, KEYSPACE, 7))
        outcomes = []
        for get in (LSMStore.get_many, get_per_op):
            store = build_store(tree, bloom_bits=2)
            preads = record_preads(store, fail_at=fail_at)
            latencies: list = []
            with pytest.raises(NoSpaceError) as raised:
                get(store, keys, None, latencies)
            outcomes.append((preads, latencies, state(store),
                             getattr(raised.value, "ops_done", None)))
        (*bulk, bulk_done), (*twin, _) = outcomes
        assert bulk == twin
        assert bulk_done == len(bulk[1]) == bulk[2][1].gets

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1),
           starts=st.lists(st.integers(-10, KEYSPACE + 10), min_size=1,
                           max_size=12),
           count=st.sampled_from([0, 1, 3, 25, 400]))
    def test_scans_match_per_op_scans(self, seed, starts, count):
        """The same runs serve scans: one merge source and one read
        plan per run against the reference's per-table walk."""
        tree = random_tree(seed)
        per_op, batched = (install_tree(test_scan_kernel.make_store(), tree)
                           for _ in range(2))
        test_scan_kernel.assert_scans_identical(per_op, batched, starts, count)


SMALL = dict(memtable_bytes=8 * 1024, max_bytes_for_level_base=16 * 1024,
             target_file_bytes=8 * 1024)


class TestInvalidation:
    def assert_batches_match(self, bulk, twin, keys) -> None:
        bulk_lat: list = []
        twin_lat: list = []
        assert bulk.get_many(keys, None, bulk_lat) == \
            get_per_op(twin, keys, None, twin_lat)
        assert bulk_lat == twin_lat
        assert state(bulk) == state(twin)
        bulk.check_invariants()

    def test_writes_between_batches_are_seen(self):
        """A flush and compactions between two batches: the second
        batch reads the new manifest, exactly like a store whose index
        was never built before (the twin only ever uses get())."""
        bulk, twin = make_store(**SMALL), make_store(**SMALL)
        keys = list(range(0, 450, 3))
        populate([bulk, twin])
        self.assert_batches_match(bulk, twin, keys)
        compactions = bulk.executor.stats.compactions
        written = np.random.default_rng(3).integers(0, 400, size=400).tolist()
        for store in (bulk, twin):
            store.put_many(written, list(range(400)), 44)
        assert bulk.executor.stats.compactions > compactions
        self.assert_batches_match(bulk, twin, keys)

    def test_only_touched_levels_are_rebuilt(self):
        store = make_store(**SMALL)
        populate([store])
        keys = list(range(0, 450, 3))
        store.get_many(keys)
        version = store.version
        deepest = version.deepest_nonempty_level()
        assert deepest >= 2
        built = list(version._read_runs)
        assert all(runs is not None for runs in built)
        # One memtable's worth of writes: a flush into L0 only.
        files = version.total_files
        key = 0
        while version.total_files == files:
            store.put(key, Value(key, 44))
            key += 1
        touched = [level for level, runs in enumerate(version._read_runs)
                   if runs is not built[level]]
        assert 0 in touched and deepest not in touched
        store.get_many(keys)
        assert version._read_runs[deepest] is built[deepest]
        assert version._read_runs[0] is not built[0]
        store.check_invariants()

    def test_add_and_remove_invalidate_one_level(self):
        store = build_store(random_tree(11), bloom_bits=10)
        version = store.version
        store.get_many(list(range(0, KEYSPACE, 5)))
        built = list(version._read_runs)
        level = version.deepest_nonempty_level()
        table = version.levels[level][0]
        version.remove(level, table)
        assert [lvl for lvl, runs in enumerate(version._read_runs)
                if runs is not built[lvl]] == [level]
        version.add(level, table)
        assert version._read_runs[level] is None
        version.check_invariants()

    def test_crash_recovery_does_not_serve_a_stale_index(self):
        bulk, twin = make_store(**SMALL), make_store(**SMALL)
        keys = list(range(0, 450, 3))
        for store in (bulk, twin):
            store.enable_crash_tracking()
        populate([bulk, twin])
        self.assert_batches_match(bulk, twin, keys)
        for store in (bulk, twin):
            for key in range(0, 120, 2):
                store.put(key, Value(key + 1, 52))
        assert bulk.crash_and_recover() == twin.crash_and_recover()
        self.assert_batches_match(bulk, twin, keys)

    def test_check_invariants_catches_a_stale_index(self):
        store = build_store(random_tree(11), bloom_bits=10)
        store.get_many(list(range(0, KEYSPACE, 5)))
        version = store.version
        level = version.deepest_nonempty_level()
        version.check_invariants()
        version._read_runs[level] = version._read_runs[0] or []
        with pytest.raises(AssertionError):
            version.check_invariants()
