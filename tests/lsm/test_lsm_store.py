"""Functional and property tests for the LSM store."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.block.device import BlockDevice
from repro.core.clock import VirtualClock
from repro.errors import ConfigError, StoreClosedError
from repro.flash.ssd import SSD
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.values import Value, value_for
from repro.lsm.config import LSMConfig
from repro.lsm.store import LSMStore
from repro.obs import Tracer, attach_tracer
from tests.conftest import make_tiny_config


def make_store(clock=None, **config_overrides):
    clock = clock or VirtualClock()
    ssd = SSD(make_tiny_config(nblocks=128), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    config = LSMConfig(
        memtable_bytes=8 * 1024,
        max_bytes_for_level_base=16 * 1024,
        target_file_bytes=8 * 1024,
        **config_overrides,
    )
    return LSMStore(fs, clock, config)


class TestBasicOperations:
    def test_put_get_roundtrip(self):
        store = make_store()
        store.put(1, Value(100, 50))
        _lat, value = store.get(1)
        assert value == Value(100, 50)

    def test_get_missing_returns_none(self):
        store = make_store()
        _lat, value = store.get(99)
        assert value is None

    def test_update_returns_newest(self):
        store = make_store()
        store.put(1, Value(100, 50))
        store.put(1, Value(200, 60))
        _lat, value = store.get(1)
        assert value == Value(200, 60)

    def test_delete_hides_key(self):
        store = make_store()
        store.put(1, Value(100, 50))
        store.delete(1)
        _lat, value = store.get(1)
        assert value is None

    def test_delete_survives_flush(self):
        store = make_store()
        store.put(1, Value(100, 50))
        store.flush()
        store.delete(1)
        store.flush()
        _lat, value = store.get(1)
        assert value is None

    def test_reads_after_flush_hit_sstables(self):
        store = make_store()
        for key in range(200):
            store.put(key, Value(key, 64))
        store.flush()
        assert sum(map(len, store.version.levels)) > 0
        for key in (0, 73, 199):
            _lat, value = store.get(key)
            assert value == Value(key, 64)

    def test_latencies_positive_and_clock_advances(self):
        store = make_store()
        before = store.clock.now
        latency = store.put(1, Value(1, 100))
        assert latency > 0
        assert store.clock.now == pytest.approx(before + latency)

    def test_closed_store_rejects_ops(self):
        store = make_store()
        store.close()
        with pytest.raises(StoreClosedError):
            store.put(1, Value(1, 1))
        store.close()  # idempotent

    def test_a_stack_the_write_path_cannot_time_is_refused(self):
        """The write path reads the SSD's busy horizon on the store's
        clock: a device stack without an SSD, or with one on another
        clock, is a ConfigError at construction."""
        ssd = SSD(make_tiny_config(), VirtualClock())
        with pytest.raises(ConfigError, match="share one clock"):
            LSMStore(ExtentFilesystem(BlockDevice(ssd)), VirtualClock())

        class Ramdisk:
            page_size, npages = 4096, 1024

        with pytest.raises(ConfigError, match="needs an SSD"):
            LSMStore(ExtentFilesystem(Ramdisk()), VirtualClock())

    def test_stats_accumulate(self):
        store = make_store()
        store.put(1, Value(1, 100))
        store.get(1)
        store.delete(1)
        store.scan(0, 10)
        assert store.stats.puts == 1
        assert store.stats.gets == 1
        assert store.stats.deletes == 1
        assert store.stats.scans == 1
        assert store.stats.user_bytes_written > 0


class TestScans:
    def test_scan_ordered(self):
        store = make_store()
        for key in (5, 1, 9, 3, 7):
            store.put(key, Value(key, 32))
        _lat, results = store.scan(0, 10)
        assert [k for k, _ in results] == [1, 3, 5, 7, 9]

    def test_scan_start_and_count(self):
        store = make_store()
        for key in range(20):
            store.put(key, Value(key, 32))
        _lat, results = store.scan(5, 4)
        assert [k for k, _ in results] == [5, 6, 7, 8]

    def test_scan_sees_newest_version_across_levels(self):
        store = make_store()
        for key in range(100):
            store.put(key, Value(key, 64))
        store.flush()
        store.put(50, Value(9999, 64))
        _lat, results = store.scan(50, 1)
        assert results[0] == (50, Value(9999, 64))

    def test_scan_skips_tombstones(self):
        store = make_store()
        for key in range(10):
            store.put(key, Value(key, 32))
        store.flush()
        store.delete(4)
        _lat, results = store.scan(0, 10)
        assert [k for k, _ in results] == [0, 1, 2, 3, 5, 6, 7, 8, 9]


class TestTreeMechanics:
    def test_compactions_happen_under_load(self):
        store = make_store()
        for key in range(2000):
            store.put(key % 500, value_for(key % 500, key, 64))
        assert store.executor.stats.compactions + store.executor.stats.trivial_moves > 0
        store.check_invariants()

    def test_write_amplification_above_one(self):
        store = make_store()
        for key in range(2000):
            store.put(key % 500, value_for(key % 500, key, 64))
        store.flush()
        host = store.fs.device.ssd.smart.host_bytes_written
        assert host > store.stats.user_bytes_written

    def test_sequential_load_uses_trivial_moves(self):
        store = make_store()
        for key in range(3000):
            store.put(key, Value(key, 64))
        assert store.executor.stats.trivial_moves > 0

    def test_all_data_survives_heavy_churn(self):
        store = make_store()
        expected = {}
        for i in range(3000):
            key = (i * 37) % 400
            value = value_for(key, i, 48)
            store.put(key, value)
            expected[key] = value
        store.flush()
        store.check_invariants()
        for key, value in list(expected.items())[:100]:
            _lat, got = store.get(key)
            assert got == value, f"key {key}"

    def test_tombstones_dropped_at_bottom(self):
        store = make_store()
        for key in range(300):
            store.put(key, Value(key, 64))
        for key in range(300):
            store.delete(key)
        store.flush()
        # After full compaction the dataset is gone; files should carry
        # (almost) no tombstones for deleted keys anymore.
        assert store.executor.stats.tombstones_dropped > 0


def with_queued_write(store: LSMStore) -> LSMStore:
    """*store* with one background write queued on its device: a
    backlog nothing on the write path put there."""
    store.fs.create("background")
    store.fs.append("background", 64 * 4096, background=True)
    return store


def documented_penalty(backlog: float, config: LSMConfig) -> float:
    """The stall rule as LSMConfig documents it."""
    soft, hard = config.backlog_soft_limit, config.backlog_hard_limit
    if backlog > hard:
        return (hard - soft) * config.slowdown_factor + (backlog - hard)
    if backlog > soft:
        return (backlog - soft) * config.slowdown_factor
    return 0.0


class TestWriteStall:
    """The stall rule in closed form, on a one-op ``put_many``."""

    #: (soft, hard) as multiples of the queued write's backlog, and
    #: whether the op fills the memtable (and so flushes it and
    #: compacts before it is timed).
    CASES = {
        "below-soft": (2.0, 4.0, False),
        "between-limits": (0.5, 2.0, False),
        "above-hard": (0.25, 0.5, False),
        "rotation": (1.0625, 100.0, True),
    }

    @pytest.mark.parametrize("writes_wal_out", [False, True],
                             ids=["replayed", "wal-write-out"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_latency_is_cpu_plus_documented_penalty(self, case,
                                                    writes_wal_out):
        soft, hard, rotates = self.CASES[case]
        backlog = with_queued_write(make_store())._ssd.backlog_seconds()
        assert backlog > 0.0
        overrides = dict(backlog_soft_limit=soft * backlog,
                         backlog_hard_limit=hard * backlog)
        if writes_wal_out:
            overrides["wal_buffer_bytes"] = 1  # every record writes out
        store = make_store(**overrides)
        config = store.config
        if rotates:
            # Fill the memtable to one entry short of its threshold;
            # three overlapping L0 tables make the op's flush merge
            # them with its own.
            for batch in range(3):
                store.put_many([7], [batch], 100)
                store.flush()
            entry = config.key_bytes + config.entry_overhead + 100
            fill = (config.memtable_bytes - 1) // entry
            keys = list(range(10, 10 + fill))
            store.put_many(keys, keys, 100)
            compactions = store.executor.stats.compactions
            store._ssd.settle()
        with_queued_write(store)
        tracer = Tracer()
        attach_tracer(tracer, clock=store.clock, ssd=store._ssd, store=store)
        tracer.enable()
        t0 = store.clock.now
        before = store._ssd.backlog_seconds()
        # (After the fill the same queued write reads back within an
        # ulp: its horizon sits at a later clock.)
        assert before == (pytest.approx(backlog) if rotates else backlog)

        latencies = []
        assert store.put_many([7], [11], 100, latencies=latencies) == 1

        after = store._ssd.backlog_seconds(t0)
        wal_spans = [e[2] for e in tracer.events() if e[3] == "wal_append"]
        if rotates:
            # The op flushed the memtable it filled and compacted L0,
            # inside its own call: the penalty reads the backlog that
            # work queued.
            assert len(store.memtable) == 0
            assert store.executor.stats.compactions > compactions
            assert len(store.version.levels[0]) < config.l0_compaction_trigger
            assert after > before
        if writes_wal_out:
            # The penalty reads the backlog after the write-out, which
            # queued device work of its own.
            (wal_latency,) = wal_spans
            assert after > before
        else:
            assert wal_spans == []
            assert rotates or after == before
            wal_latency = 0.0
        soft_limit = config.backlog_soft_limit
        hard_limit = config.backlog_hard_limit
        assert {"below-soft": after <= soft_limit,
                "between-limits": soft_limit < after <= hard_limit,
                "above-hard": after > hard_limit,
                # Only the op's own flush puts it past the soft limit.
                "rotation": before <= soft_limit < after}[case]
        penalty = documented_penalty(after, config)
        assert (penalty > 0.0) == (case != "below-soft")
        assert latencies == [config.cpu_overhead + wal_latency + penalty]
        assert store.clock.now == t0 + latencies[0]
        (op,) = [e for e in tracer.events() if e[4] == "op"]
        assert op[6].get("write_stall", 0.0) == penalty


class TestPropertyBased:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "delete", "get"]),
                st.integers(0, 80),
                st.integers(0, 120),
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_store_matches_dict_model(self, ops):
        store = make_store()
        model: dict[int, Value] = {}
        for i, (kind, key, vlen) in enumerate(ops):
            if kind == "put":
                value = Value(i + 1, vlen)
                store.put(key, value)
                model[key] = value
            elif kind == "delete":
                store.delete(key)
                model.pop(key, None)
            else:
                _lat, got = store.get(key)
                assert got == model.get(key)
        store.flush()
        store.check_invariants()
        for key, value in model.items():
            _lat, got = store.get(key)
            assert got == value
        _lat, scanned = store.scan(0, 10_000)
        assert dict(scanned) == model
