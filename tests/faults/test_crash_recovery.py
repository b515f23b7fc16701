"""Crash-recovery equivalence: recovered stores vs a never-crashed oracle.

The pinned contract (DESIGN.md §11): killing a shard loses exactly the
writes that were still buffered in its WAL tail (LSM) or nothing at
all (B+Tree — the journal is synced at commit), and recovery rebuilds
a store whose every *durable* key reads back identical to an oracle
that never crashed.
"""

from __future__ import annotations

import itertools

import pytest

from repro.block.device import BlockDevice
from repro.btree.config import BTreeConfig
from repro.btree.store import BTreeStore
from repro.core.clock import VirtualClock
from repro.errors import ConfigError
from repro.flash.ssd import SSD
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.values import value_for
from repro.lsm.config import LSMConfig
from repro.lsm.store import LSMStore
from tests.conftest import make_tiny_config


def make_lsm(**overrides):
    clock = VirtualClock()
    ssd = SSD(make_tiny_config(nblocks=128), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    config = LSMConfig(
        memtable_bytes=8 * 1024,
        max_bytes_for_level_base=16 * 1024,
        target_file_bytes=8 * 1024,
        # Small WAL write-out batches: the crash then severs a short
        # buffered tail instead of the whole active log, so runs leave
        # both durable-prefix and lost-tail records to check.
        wal_buffer_bytes=512,
        **overrides,
    )
    return LSMStore(fs, clock, config)


def make_btree(**overrides):
    clock = VirtualClock()
    ssd = SSD(make_tiny_config(nblocks=128), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    config = BTreeConfig(
        leaf_page_bytes=2 * 1024,
        cache_bytes=8 * 1024,
        internal_fanout=8,
        journal_ring_bytes=64 * 1024,
        checkpoint_log_bytes=32 * 1024,
        **overrides,
    )
    return BTreeStore(fs, clock, config)


def workload(store, nkeys=120, value_bytes=64):
    """A deterministic put sequence with per-version value seeds."""
    for key in range(nkeys):
        store.put(key, value_for(key, 0, value_bytes))
    # Second wave of updates over a prefix, so recovery must keep the
    # *newest* durable version, not just any.
    for key in range(nkeys // 3):
        store.put(key, value_for(key, 1, value_bytes))


def extend_until_partial(store, start_key=1000, value_bytes=64, limit=400):
    """Put fresh keys until the active WAL holds both a written-out
    prefix and a buffered tail; returns how many puts it took (so an
    oracle can replay the exact same sequence)."""
    for n in range(1, limit + 1):
        store.put(start_key + n - 1, value_for(start_key + n - 1, 0, value_bytes))
        wal = store.wal
        if (wal is not None and wal._buffered > 0
                and store.fs.file_size(wal.filename) > 0):
            return n
    raise AssertionError("never reached a partially-durable WAL")


def mixed_ops(nkeys=120):
    """``(key, version)`` writes, ``version`` None for a delete: a load,
    a second version over a prefix, deletes over the next stretch, then
    puts and deletes interleaved."""
    ops = [(key, 0) for key in range(nkeys)]
    ops += [(key, 1) for key in range(nkeys // 3)]
    ops += [(key, None) for key in range(nkeys // 3, nkeys // 2)]
    ops += [(key, 2 if key % 3 else None)
            for key in range(nkeys // 2, 3 * nkeys // 4)]
    return ops


def issue(store, ops, sizes=None, value_bytes=64):
    """Issue *ops* one per-op call each (*sizes* None), or as
    ``put_many``/``delete_many`` calls: same-kind runs cut to the next
    size of the cycle *sizes*."""
    if sizes is None:
        for key, version in ops:
            if version is None:
                store.delete(key)
            else:
                store.put(key, value_for(key, version, value_bytes))
        return
    cycle = itertools.cycle(sizes)
    i = 0
    while i < len(ops):
        deleting = ops[i][1] is None
        j = i
        end = min(len(ops), i + next(cycle))
        while j < end and (ops[j][1] is None) == deleting:
            j += 1
        keys = [key for key, _ in ops[i:j]]
        if deleting:
            assert store.delete_many(keys) == len(keys)
        else:
            seeds = [value_for(key, version, value_bytes).seed
                     for key, version in ops[i:j]]
            assert store.put_many(keys, seeds, value_bytes) == len(keys)
        i = j


class TestLSMCrashRecovery:
    def test_crash_without_tracking_raises(self):
        store = make_lsm()
        with pytest.raises(ConfigError, match="enable_crash_tracking"):
            store.crash_and_recover()

    def test_durable_keys_equal_oracle(self):
        oracle = make_lsm()
        target = make_lsm()
        target.enable_crash_tracking()
        workload(oracle)
        workload(target)
        # Leave the active WAL with a durable (written-out) prefix AND
        # a buffered tail, then replay the identical puts on the
        # oracle — recovery must keep the prefix, lose the tail.
        extra = extend_until_partial(target)
        for n in range(extra):
            oracle.put(1000 + n, value_for(1000 + n, 0, 64))
        latency, lost = target.crash_and_recover()
        assert latency > 0.0  # the durable WAL prefix was read back
        for key in [*range(120), *range(1000, 1000 + extra)]:
            _lat, expect = oracle.get(key)
            _lat, got = target.get(key)
            if key in lost:
                # The newest version rode the un-synced WAL tail; the
                # recovered store must NOT serve it (older version or
                # nothing, depending on what was durable).
                assert got != expect
            else:
                assert got == expect, f"durable key {key} diverged"

    def test_lost_set_is_plausible_and_deterministic(self):
        losses = []
        for _ in range(2):
            store = make_lsm()
            store.enable_crash_tracking()
            workload(store)
            _latency, lost = store.crash_and_recover()
            losses.append(lost)
        assert losses[0] == losses[1]
        # The workload leaves a buffered WAL tail at this config, so
        # the crash must actually lose something — otherwise the test
        # proves nothing.
        assert losses[0]

    def test_recovered_store_accepts_new_writes(self):
        store = make_lsm()
        store.enable_crash_tracking()
        workload(store)
        store.crash_and_recover()
        store.put(500, value_for(500, 0, 64))
        _lat, value = store.get(500)
        assert value == value_for(500, 0, 64)

    def test_flushed_everything_loses_nothing(self):
        store = make_lsm()
        store.enable_crash_tracking()
        workload(store)
        store.flush()  # empties memtable + discards WALs
        _latency, lost = store.crash_and_recover()
        assert lost == set()
        for key in range(120 // 3):
            _lat, value = store.get(key)
            assert value == value_for(key, 1, 64)

    def test_double_crash_is_safe(self):
        store = make_lsm()
        store.enable_crash_tracking()
        workload(store)
        _lat1, lost1 = store.crash_and_recover()
        # Everything replayed was flushed by recovery; a second crash
        # immediately after must lose nothing more.
        _lat2, lost2 = store.crash_and_recover()
        assert lost2 == set()


class TestLSMCrashLogThroughBatches:
    """The batch write path logs what the per-op path logs.

    A killed fleet shard's WAL records are logged by ``_write_many``'s
    replay, which the fleet's one-op calls and the closed loop's longer
    runs both go through.  Batches of mixed sizes must leave the crash
    the same lost set and the store the same recovered reads as the
    per-op calls."""

    @pytest.mark.parametrize("sizes", [(1,), (2, 7, 1), (1, 5, 2, 17, 3, 40),
                                       (1000,)],
                             ids=["ones", "short", "mixed", "whole-runs"])
    def test_batches_recover_like_per_op(self, sizes):
        outcomes = []
        for batches in (None, sizes):
            store = make_lsm()
            store.enable_crash_tracking()
            issue(store, mixed_ops(), batches)
            latency, lost = store.crash_and_recover()
            reads = [store.get(key)[1] for key in range(120)]
            outcomes.append((latency, lost, reads, store.clock.now))
        per_op, batched = outcomes
        # The crash severed a buffered tail holding puts and deletes.
        assert per_op[1] & {key for key, v in mixed_ops() if v is None}
        assert per_op[1] & {key for key, v in mixed_ops() if v is not None}
        assert batched == per_op

    def test_batched_double_crash_loses_nothing_more(self):
        store = make_lsm()
        store.enable_crash_tracking()
        issue(store, mixed_ops(), (1, 5, 2, 17, 3, 40))
        _lat, lost = store.crash_and_recover()
        assert lost
        assert store.crash_and_recover()[1] == set()


class TestBTreeCrashRecovery:
    def test_journal_makes_all_keys_durable(self):
        oracle = make_btree()
        target = make_btree()
        target.enable_crash_tracking()
        workload(oracle)
        workload(target)
        latency, lost = target.crash_and_recover()
        assert latency > 0.0
        assert lost == set()  # synchronous journal: nothing buffered
        for key in range(120):
            _lat, expect = oracle.get(key)
            _lat, got = target.get(key)
            assert got == expect, f"key {key} diverged after recovery"

    def test_recovery_restarts_with_cold_cache(self):
        store = make_btree()
        store.enable_crash_tracking()
        workload(store)
        reads_before = store.pager.pages_read
        store.crash_and_recover()
        # Post-recovery reads must re-fault pages from the device.
        for key in (0, 60, 119):
            _lat, value = store.get(key)
            assert value is not None
        assert store.pager.pages_read > reads_before

    def test_recovery_is_deterministic(self):
        outcomes = []
        for _ in range(2):
            store = make_btree()
            store.enable_crash_tracking()
            workload(store)
            outcomes.append(store.crash_and_recover())
        assert outcomes[0] == outcomes[1]
