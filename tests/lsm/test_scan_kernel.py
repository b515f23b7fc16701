"""The LSM scan merge vs the reference reads (DESIGN.md §13.1, §13.4).

The store serves a scan with one composite-key argsort over one packed
column per sorted run, the reads planned per run — the head reads of
tables the merge never reaches resolved to device runs once per run —
and submitted together through ``fs.read_runs``.
``reference_reads.scan`` says what that must return and pay: a
``heapq`` merge over per-table iterators, one read per table — it
shares no merge or charging code with the store.  Every scan here is
checked against it: the pairs, the ``user_bytes_read`` they add up to
and the reads, in order (``==``, no tolerance), recorded at the block
layer and compared with the reference's ``(file, offset, nbytes)``
reads mapped to device runs by ``fs.byte_runs``.  Twin stores holding
the identical tree then check the loop around the merge: one serves
the scans per op, the other as one ``scan_many`` batch, and per-op
latencies, the virtual clock, ``KVStats`` and device read bytes must
match.  Also pins the composite-packing limits (a ``ConfigError``
before anything is charged) and the widening-window branch of the
merge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.block.device import BlockDevice
from repro.core.clock import VirtualClock
from repro.errors import ConfigError, NoSpaceError
from repro.flash.ssd import SSD
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.values import Value
from repro.lsm.config import LSMConfig
from repro.lsm.memtable import (KIND_DELETE, KIND_PUT, SCAN_KEY_SPAN,
                                SCAN_SEQ_SPAN)
from repro.lsm.sstable import SSTable
from repro.lsm.store import LSMStore
from repro.rng import substream
from tests.conftest import make_tiny_config
from tests.lsm import reference_reads


def make_store(fragmented: bool = False, **config_overrides) -> LSMStore:
    """A small-config store; *fragmented* fills its filesystem with
    one-page files and deletes every other one first, so the free
    space is one-page holes and every page of a table the store writes
    is an extent of its own."""
    clock = VirtualClock()
    ssd = SSD(make_tiny_config(nblocks=128), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    if fragmented:
        npages = fs.allocator.free_pages
        for i in range(npages):
            fs.create(f"pad{i}")
            fs.reserve(f"pad{i}", 1)
        for i in range(0, npages, 2):
            fs.delete(f"pad{i}")
    params = dict(
        memtable_bytes=8 * 1024,
        max_bytes_for_level_base=16 * 1024,
        target_file_bytes=8 * 1024,
    )
    params.update(config_overrides)
    store = LSMStore(fs, clock, LSMConfig(**params))
    store.preads = record_reads(store)
    return store


def record_reads(store: LSMStore, fail_at: int | None = None) -> list:
    """Record every device read below the store's filesystem, in order,
    as ``(start, npages)`` — one request of a ``BlockDevice.read_runs``
    submission — and raise ENOSPC instead of submitting the request
    that would be read number *fail_at*."""
    reads: list = []
    device = store.fs.device
    read_runs = device.read_runs

    def recording_read_runs(starts, lens):
        requests = list(zip(starts, lens))
        if fail_at is not None and 0 <= fail_at - len(reads) < len(requests):
            raise NoSpaceError("injected")
        reads.extend(requests)
        return read_runs(starts, lens)

    device.read_runs = recording_read_runs
    return reads


def device_reads(store: LSMStore, reads) -> list:
    """The device requests, in order, that pay the ``(file, offset,
    nbytes)`` *reads* the reference names."""
    byte_runs = store.fs.byte_runs
    return [run for name, offset, nbytes in reads
            for run in byte_runs(name, offset, nbytes)]


def make_pair(**config_overrides) -> tuple[LSMStore, LSMStore]:
    """(per-op, batched) twins."""
    return make_store(**config_overrides), make_store(**config_overrides)


def populate(stores, nkeys: int = 400, seed: int = 17,
             key_of=lambda i: i) -> None:
    """Identical multi-level write history on every store."""
    rng = substream(seed, "scan-kernel")
    keys = [key_of(int(k)) for k in rng.integers(0, nkeys, size=900)]
    for store in stores:
        for i, key in enumerate(keys):
            if i % 11 == 10:
                store.delete(key)
            else:
                store.put(key, Value(key * 7 + i, 40 + (i % 5)))
    # The history crossed several memtable rotations, so reads see
    # the memtable + multiple levels.
    assert sum(map(len, stores[0].version.levels)) > 1


def install_tree(store: LSMStore, tree: dict) -> LSMStore:
    """Hand-build a tree from plain data: ``tree["tables"]`` is a list
    of ``(level, (keys, kinds, vlens))`` — L0 oldest first, deeper
    levels with disjoint ranges; sequence numbers fall from table to
    table — and ``tree["memtables"]`` two sets of entries, older then
    newer, both written into the one memtable, newest of all."""
    seq = 1_000_000
    for level, (keys, kinds, vlens) in tree["tables"]:
        n = len(keys)
        seq -= n
        table = SSTable(
            store._next_table_id(), store.config,
            np.array(keys, dtype=np.int64), np.arange(seq, seq + n),
            np.arange(n, dtype=np.uint64), np.array(vlens, dtype=np.int64),
            np.array(kinds, dtype=np.int8))
        store.fs.create(table.filename)
        store.fs.append(table.filename, table.data_bytes, background=True)
        store.version.add(level, table)
    # Memtable sequence numbers start above every table's: a (key, seq)
    # pair is unique in a real store, and continuing from the last
    # table's base would reuse that table's numbers.
    seq = 1_000_000
    for keys, kinds, vlens in tree["memtables"]:
        for key, kind, vlen in zip(keys, kinds, vlens):
            seq += 1
            if kind == KIND_PUT:
                store.memtable.put(key, seq, key, vlen)
            else:
                store.memtable.delete(key, seq)
    store.fs.device.ssd.drain()
    store.check_invariants()
    return store


def state(store: LSMStore) -> tuple:
    return (store.clock.now, store.stats.as_dict(),
            store.fs.device.ssd.smart.host_bytes_read, store.preads)


def assert_scans_identical(per_op, batched, start_keys, count) -> None:
    """Each scan returns the reference's pairs and pays the reference's
    reads; one ``scan_many`` batch does what the per-op calls did."""
    key_bytes = per_op.config.key_bytes
    lat_ref = []
    for key in start_keys:
        pairs, reads = reference_reads.scan(per_op, key, count)
        mark, before = len(per_op.preads), per_op.stats.user_bytes_read
        latency, got = per_op.scan(key, count)
        assert got == pairs
        assert per_op.preads[mark:] == device_reads(per_op, reads)
        assert per_op.stats.user_bytes_read - before == sum(
            key_bytes + value.length for _key, value in pairs)
        lat_ref.append(latency)
    lat: list = []
    assert batched.scan_many(start_keys, count, latencies=lat) == len(start_keys)
    assert lat == lat_ref
    assert state(batched) == state(per_op)
    batched.check_invariants()  # incl. the runs' scan columns


class TestScanMergeEquivalence:
    def test_scans_identical_across_levels(self):
        per_op, batched = make_pair()
        populate([per_op, batched])
        rng = substream(23, "scan-starts")
        starts = [int(k) for k in rng.integers(0, 450, size=60)]
        for count in (1, 7, 100):
            assert_scans_identical(per_op, batched, starts, count)
        assert batched.preads  # the scans did reach the tables

    def test_zero_count_still_charges_active_tables(self):
        """count <= 0 pops nothing but consumes one entry per active
        table (the merge's initial one-ahead pull)."""
        per_op, batched = make_pair()
        populate([per_op, batched])
        assert_scans_identical(per_op, batched, [0, 100, 399], 0)
        assert batched.preads

    def test_flushes_and_compactions_between_batches(self):
        """The runs built for the first batch go stale level by level;
        the second batch reads the new manifest."""
        per_op, batched = make_pair()
        populate([per_op, batched])
        starts = list(range(0, 450, 37))
        assert_scans_identical(per_op, batched, starts, 20)
        compactions = batched.executor.stats.compactions
        populate([per_op, batched], seed=18)
        assert batched.executor.stats.compactions > compactions
        assert_scans_identical(per_op, batched, starts, 20)

    def test_scans_interleaved_with_writes(self):
        per_op, batched = make_pair()
        populate([per_op, batched], nkeys=200)
        rng = substream(29, "interleave")
        for round_ in range(10):
            key = int(rng.integers(0, 250))
            for store in (per_op, batched):
                store.put(key, Value(round_, 48))
            assert_scans_identical(per_op, batched,
                                   [key, key // 2, 0], 25)


def assert_scan_refused(store: LSMStore, start_keys) -> None:
    """A scan outside the packing is a ConfigError with nothing
    charged; the store goes on serving everything else."""
    def charged():
        return store.clock.now, store.stats.as_dict(), len(store.preads)

    before = charged()
    with pytest.raises(ConfigError):
        store.scan(start_keys[0], 30)
    with pytest.raises(ConfigError):
        store.scan_many(start_keys, 30)
    assert charged() == before
    assert store.get(start_keys[0])[0] > 0.0
    store.check_invariants()


class TestOverflowFallback:
    """The packing limits.  There is one scan merge and nothing to fall
    back to, so outside them a scan is refused (the test names date
    from the heap scan that used to serve these)."""

    def test_huge_keys_fall_back_to_per_op_scan(self):
        store = make_store()
        populate([store], key_of=lambda i: i + SCAN_KEY_SPAN)
        assert_scan_refused(store, [SCAN_KEY_SPAN, SCAN_KEY_SPAN + 100])

    @pytest.mark.parametrize("key", [pytest.param(-1, id="-1"),
                                     pytest.param(SCAN_KEY_SPAN, id="SPAN")])
    def test_one_unpackable_memtable_key_falls_back(self, key):
        """The guard is on the memtable's key range, before anything
        is packed: a negative key would otherwise wrap into the
        composite's high bits."""
        store = make_store()
        populate([store])
        store.put(key, Value(5, 40))
        with pytest.raises(ConfigError):
            store.memtable.sorted_columns()
        assert_scan_refused(store, [-5, 0, 300])

    def test_in_range_keys_use_the_packed_merge(self):
        """One merge source per sorted run, not per table."""
        store = make_store()
        populate([store])
        levels = store.version.levels
        assert any(len(tables) > 1 for tables in levels[1:])
        sources = store._scan_merge_sources()
        assert len(sources) == (
            1 + len(levels[0])
            + sum(1 for tables in levels[1:] if tables))


class TestPackingPrecision:
    def test_top_keys_with_the_oldest_seqs(self):
        """Composites above 2^53 are compared as uint64, never as
        float64: with keys just under the span and the smallest
        sequence numbers, an entry's low bits sit within one float64
        ulp of the next key's composite, and a rounded comparison
        starts the scan one entry early."""
        per_op, batched = make_pair(memtable_bytes=512 * 1024)
        base = SCAN_KEY_SPAN - 200
        for store in (per_op, batched):
            for i in range(100):
                store.put(base + i, Value(i, 32))
        assert_scans_identical(per_op, batched,
                               [base + i for i in range(0, 100, 3)], 5)


class TestWideningWindow:
    def test_tombstone_runs_force_widening(self):
        """The first ``count + 1`` merged entries are all tombstones,
        so the fixed window cannot prove ``count`` results and the
        merge must widen — a wrong (non-widening) merge would
        under-count and diverge from the reference."""
        per_op, batched = make_pair(memtable_bytes=512 * 1024)
        for store in (per_op, batched):
            for key in range(60):
                store.put(key, Value(key, 32))
            for key in range(50):
                store.delete(key)
        # All in one memtable: 50 leading tombstones, then puts.
        assert_scans_identical(per_op, batched, [0], 2)
        assert_scans_identical(per_op, batched, [0, 10, 49, 50], 5)

    def test_exhaustion_without_boundary_stops_clean(self):
        """Fewer live keys than requested: the merge drains every
        source (boundary None) and stops at the true result count."""
        per_op, batched = make_pair(memtable_bytes=512 * 1024)
        for store in (per_op, batched):
            for key in range(8):
                store.put(key, Value(key, 32))
        assert_scans_identical(per_op, batched, [0, 4], 100)


class TestSequenceOverflowGuard:
    def test_seq_span_exceeded_falls_back(self):
        store = make_store()
        populate([store])
        store._next_seq = SCAN_SEQ_SPAN
        assert store.scan(0, 5)[1]  # the last packable sequence number
        store._next_seq = SCAN_SEQ_SPAN + 1
        assert_scan_refused(store, [0, 300])


def puts(keys, vlen=40) -> tuple:
    keys = list(keys)
    return keys, [KIND_PUT] * len(keys), [vlen] * len(keys)


def tombstones(keys) -> tuple:
    keys = list(keys)
    return keys, [KIND_DELETE] * len(keys), [0] * len(keys)


EMPTY = ([], [], [])
#: Two overlapping L0 tables over a three-table and a two-table level
#: (L1 stays empty); gaps below, between and above the level's tables.
TREE = {
    "tables": [
        (0, puts(range(0, 300, 7), 700)),
        (0, ([20, 64, 65, 130, 131], [KIND_PUT, KIND_DELETE] * 2 + [KIND_PUT],
             [40, 0, 40, 0, 4100])),
        (2, puts(range(10, 41, 2))),
        (2, puts(range(60, 91, 2), 9000)),
        (2, puts(range(120, 151, 2))),
        (3, puts(range(0, 101))),
        (3, puts(range(110, 291, 3), 4100)),
    ],
    "memtables": [puts([35, 36, 62]), ([61, 150], [KIND_DELETE, KIND_PUT],
                                       [0, 24])],
}


def build_pair(tree: dict, fragmented: bool = False) -> tuple[LSMStore, LSMStore]:
    return tuple(install_tree(make_store(fragmented), tree) for _ in range(2))


class TestRunPlan:
    """Start positions and charge windows derived per sorted run."""

    @pytest.mark.parametrize("starts", [
        pytest.param([130, 149, 150, 200, 290], id="inside-a-levels-last-table"),
        pytest.param([151, 160, 291, 299, 1000], id="above-a-levels-max-key"),
        pytest.param([-3, 0, 5, 9], id="below-a-levels-min-key"),
        pytest.param([41, 50, 59, 101, 109], id="in-the-gap-between-tables"),
        pytest.param([10, 40, 60, 90, 100, 110], id="on-table-boundaries"),
    ])
    @pytest.mark.parametrize("count", [0, 1, 5, 100])
    def test_start_positions(self, starts, count):
        per_op, batched = build_pair(TREE)
        assert_scans_identical(per_op, batched, starts, count)

    def test_pops_spill_across_a_table_boundary(self):
        """From key 36, L2 pops 36, 38, 40 out of its first table and
        goes on in the second: the first table is read to its end, the
        second from its start past its own pops, the third only its
        first entry."""
        per_op, batched = build_pair(TREE)
        assert_scans_identical(per_op, batched, [36], 40)
        first, second, third = (t.filename for t in batched.version.levels[2])
        # The reads the scan just paid, in file terms.
        reads = {name: (offset, nbytes) for name, offset, nbytes
                 in reference_reads.scan(batched, 36, 40)[1]}
        config = batched.config
        entry = config.key_bytes + config.entry_overhead + 40
        big = entry - 40 + 9000
        assert reads[first] == (13 * entry, 3 * entry)  # 36, 38, 40
        assert reads[second][0] == 0 and big < reads[second][1] < 16 * big
        assert reads[third] == (0, entry)

    def test_pile_ups_widen_the_window_inside_one_run(self):
        """One level holds 150 tombstones in a row and every newer
        source repeats its first live keys: a ``count + 1`` window on
        that run proves nothing, so it doubles — within the run and
        across its table boundary."""
        tree = {"tables": [(0, puts(range(150, 160))),
                           (0, puts(range(150, 156), 700)),
                           (1, tombstones(range(0, 90))),
                           (1, tombstones(range(90, 150))),
                           (1, puts(range(150, 200))),
                           (2, puts(range(0, 200, 2)))],
                "memtables": [EMPTY, puts([150, 151])]}
        per_op, batched = build_pair(tree)
        for count in (1, 2, 7):
            assert_scans_identical(per_op, batched, [0, 30, 89, 90, 149], count)

    def test_l0_only_store(self):
        tree = {"tables": [(0, puts(range(0, 100, 3))),
                           (0, tombstones(range(0, 100, 6))),
                           (0, puts(range(50, 150), 4100))],
                "memtables": [EMPTY, EMPTY]}
        per_op, batched = build_pair(tree)
        assert all(len(run.tables) == 1 for run in batched.version.runs())
        for count in (0, 3, 100):
            assert_scans_identical(per_op, batched, [0, 49, 50, 99, 149, 150],
                                   count)

    def test_heads_and_windows_that_span_extents(self):
        """Every page its own extent: L2's 9 000-byte and L3's 4 100-byte
        first entries make head reads of several device runs, and the
        windows reached across a page boundary are several runs too —
        each still charged as one range, in order."""
        per_op, batched = build_pair(TREE, fragmented=True)
        starts = [-3, 0, 9, 36, 41, 60, 89, 100, 110, 130, 151, 299]
        for count in (0, 1, 5, 40, 100):
            assert_scans_identical(per_op, batched, starts, count)
        heads = {(table.filename, 0, int(table._offsets[1]))
                 for _level, table in batched.version.all_tables()}
        spans = {"head": False, "window": False}
        for key in starts:
            for read in reference_reads.scan(batched, key, 40)[1]:
                if len(batched.fs.byte_runs(*read)) > 1:
                    spans["head" if read in heads else "window"] = True
        assert spans == {"head": True, "window": True}
        assert any(len(group) > 1 for run in batched.version.runs()
                   if run.comp is not None for group in run.head_runs)

    def test_a_stale_scan_column_fails_the_invariant_check(self):
        _per_op, batched = build_pair(TREE)
        batched.scan_many([0], 5)
        run = next(run for run in batched.version.runs() if len(run.tables) > 1)
        run.hi = run.hi + 1
        with pytest.raises(AssertionError):
            batched.version.check_invariants()

    def test_a_stale_head_run_fails_the_invariant_check(self):
        _per_op, batched = build_pair(TREE)
        batched.scan_many([0], 5)
        run = next(run for run in batched.version.runs() if len(run.tables) > 1)
        (start, npages), = run.head_runs[-1]
        run.head_runs[-1] = [(start + 1, npages)]
        with pytest.raises(AssertionError):
            batched.version.check_invariants()
