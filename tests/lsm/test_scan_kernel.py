"""The batched LSM scan merge vs the per-op public path (DESIGN.md §13).

Twin stores receive the identical write history; one then serves a
scan batch through ``scan_many`` (one composite-key argsort per scan
over shared packed columns), the other through ``scan()`` per op (a
Python heap over per-source iterators — it shares no merge code with
the batch path).  Per-op latencies, the virtual clock, ``KVStats``,
device read bytes and the ``fs.pread`` call sequence must match
exactly (``==``, no tolerance).  Also pins the composite-packing
overflow fallback and the widening-window branch of the merge.
"""

from __future__ import annotations

from repro.block.device import BlockDevice
from repro.core.clock import VirtualClock
from repro.flash.ssd import SSD
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.values import Value
from repro.lsm.config import LSMConfig
from repro.lsm.store import _KEY_SPAN, LSMStore
from repro.rng import substream
from tests.conftest import make_tiny_config


def make_store(**config_overrides) -> LSMStore:
    clock = VirtualClock()
    ssd = SSD(make_tiny_config(nblocks=128), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    params = dict(
        memtable_bytes=8 * 1024,
        max_bytes_for_level_base=16 * 1024,
        target_file_bytes=8 * 1024,
    )
    params.update(config_overrides)
    store = LSMStore(fs, clock, LSMConfig(**params))
    # Record every fs.pread the store issues: (file, offset, nbytes).
    store.preads = []
    pread = fs.pread

    def recording_pread(name, offset, nbytes):
        store.preads.append((name, offset, nbytes))
        return pread(name, offset, nbytes)

    fs.pread = recording_pread
    return store


def make_pair(**config_overrides) -> tuple[LSMStore, LSMStore]:
    """(per-op reference, batched) twins."""
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
    # memtable + immutables + multiple levels.
    assert stores[0].version.total_files > 1


def state(store: LSMStore) -> tuple:
    return (store.clock.now, store.stats.snapshot(),
            store.fs.device.ssd.smart.host_bytes_read, store.preads)


def assert_scans_identical(per_op, batched, start_keys, count) -> None:
    lat_ref = [per_op.scan(key, count)[0] for key in start_keys]
    lat: list = []
    assert batched.scan_many(start_keys, count, latencies=lat) == len(start_keys)
    assert lat == lat_ref
    assert state(batched) == state(per_op)


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
        table (``scan()``'s initial one-ahead push)."""
        per_op, batched = make_pair()
        populate([per_op, batched])
        assert_scans_identical(per_op, batched, [0, 100, 399], 0)
        assert batched.preads

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


class TestOverflowFallback:
    def test_huge_keys_fall_back_to_per_op_scan(self):
        per_op, batched = make_pair()
        populate([per_op, batched], key_of=lambda i: i + _KEY_SPAN)
        tables = [t for _lvl, t in batched.version.all_tables()]
        assert batched._scan_merge_sources(tables) is None
        assert_scans_identical(per_op, batched,
                               [_KEY_SPAN, _KEY_SPAN + 100], 30)

    def test_in_range_keys_use_the_packed_merge(self):
        store = make_store()
        populate([store])
        tables = [t for _lvl, t in store.version.all_tables()]
        sources = store._scan_merge_sources(tables)
        assert sources is not None
        assert len(sources) >= 1 + len(tables)  # memtable(s) + tables


class TestWideningWindow:
    def test_tombstone_runs_force_widening(self):
        """The first ``count + 1`` merged entries are all tombstones,
        so the fixed window cannot prove ``count`` results and the
        merge must widen — a wrong (non-widening) merge would
        under-count and diverge from ``scan()``."""
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
        per_op, batched = make_pair()
        for store in (per_op, batched):
            store.put(1, Value(1, 32))
            store._next_seq = (1 << 40) + 1
        assert batched._scan_merge_sources([]) is None
        # And the public path still answers, through scan() per op.
        assert_scans_identical(per_op, batched, [0], 5)
