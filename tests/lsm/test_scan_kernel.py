"""The array LSM scan kernel vs its scalar oracle (DESIGN.md §13).

Two stores — one per kernel mode — receive the identical write history,
then serve the identical scan batches; per-op latencies, stats
counters and the virtual clock must match exactly (``==``, no
tolerance).  Also pins the composite-packing overflow fallback and the
widening-window branch of the merge kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.block.device import BlockDevice
from repro.core.clock import VirtualClock
from repro.flash.ssd import SSD
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.values import Value
from repro.lsm.config import LSMConfig
from repro.lsm.store import _KEY_SPAN, LSMStore
from repro.rng import substream
from tests.conftest import make_tiny_config


def make_store(kernel: str, **config_overrides) -> LSMStore:
    clock = VirtualClock()
    ssd = SSD(make_tiny_config(nblocks=128), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    params = dict(
        memtable_bytes=8 * 1024,
        max_bytes_for_level_base=16 * 1024,
        target_file_bytes=8 * 1024,
    )
    params.update(config_overrides)
    return LSMStore(fs, clock, LSMConfig(**params), kernel=kernel)


def make_pair(**config_overrides) -> tuple[LSMStore, LSMStore]:
    return (make_store("scalar", **config_overrides),
            make_store("array", **config_overrides))


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
    stats = store._stats
    return (store.clock.now, stats.user_bytes_read, stats.gets, stats.scans,
            store.fs.device.ssd.smart.host_bytes_read)


def assert_scans_identical(scalar, array, start_keys, count) -> None:
    lat_s: list = []
    lat_a: list = []
    assert scalar.scan_many(start_keys, count, latencies=lat_s) == \
        array.scan_many(start_keys, count, latencies=lat_a)
    assert lat_a == lat_s
    assert state(array) == state(scalar)


class TestScanMergeEquivalence:
    def test_scans_identical_across_levels(self):
        scalar, array = make_pair()
        populate([scalar, array])
        rng = substream(23, "scan-starts")
        starts = [int(k) for k in rng.integers(0, 450, size=60)]
        for count in (1, 7, 100):
            assert_scans_identical(scalar, array, starts, count)

    def test_zero_count_still_charges_active_tables(self):
        """count <= 0 pops nothing but consumes one entry per active
        table (the scalar merge's initial one-ahead push)."""
        scalar, array = make_pair()
        populate([scalar, array])
        assert_scans_identical(scalar, array, [0, 100, 399], 0)

    def test_scans_interleaved_with_writes(self):
        scalar, array = make_pair()
        populate([scalar, array], nkeys=200)
        rng = substream(29, "interleave")
        for round_ in range(10):
            key = int(rng.integers(0, 250))
            for store in (scalar, array):
                store.put(key, Value(round_, 48))
            assert_scans_identical(scalar, array,
                                   [key, key // 2, 0], 25)


class TestOverflowFallback:
    def test_huge_keys_fall_back_to_scalar_merge(self):
        scalar, array = make_pair()
        populate([scalar, array], key_of=lambda i: i + _KEY_SPAN)
        tables = [t for _lvl, t in array.version.all_tables()]
        assert array._scan_merge_sources(tables) is None
        assert_scans_identical(scalar, array,
                               [_KEY_SPAN, _KEY_SPAN + 100], 30)

    def test_in_range_keys_use_the_array_merge(self):
        array = make_store("array")
        populate([array])
        tables = [t for _lvl, t in array.version.all_tables()]
        sources = array._scan_merge_sources(tables)
        assert sources is not None
        assert len(sources) >= 1 + len(tables)  # memtable(s) + tables


class TestWideningWindow:
    def test_tombstone_runs_force_widening(self):
        """The first ``count + 1`` merged entries are all tombstones,
        so the fixed window cannot prove ``count`` results and the
        kernel must widen — a wrong (non-widening) merge would
        under-count and diverge from the scalar oracle."""
        scalar, array = make_pair(memtable_bytes=512 * 1024)
        for store in (scalar, array):
            for key in range(60):
                store.put(key, Value(key, 32))
            for key in range(50):
                store.delete(key)
        # All in one memtable: 50 leading tombstones, then puts.
        assert_scans_identical(scalar, array, [0], 2)
        assert_scans_identical(scalar, array, [0, 10, 49, 50], 5)

    def test_exhaustion_without_boundary_stops_clean(self):
        """Fewer live keys than requested: the merge drains every
        source (boundary None) and stops at the true result count."""
        scalar, array = make_pair(memtable_bytes=512 * 1024)
        for store in (scalar, array):
            for key in range(8):
                store.put(key, Value(key, 32))
        assert_scans_identical(scalar, array, [0, 4], 100)


class TestSequenceOverflowGuard:
    def test_seq_span_exceeded_falls_back(self):
        array = make_store("array")
        array.put(1, Value(1, 32))
        array._next_seq = (1 << 40) + 1
        assert array._scan_merge_sources([]) is None
        # And the public path still answers correctly via the oracle.
        lat: list = []
        assert array.scan_many([0], 5, latencies=lat) == 1
        assert len(lat) == 1
