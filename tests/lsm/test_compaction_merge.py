"""Compaction-merge semantics and the composite-key merge order.

The pins for `CompactionExecutor._merge` (DESIGN.md §12): hand-built
scenarios with literal expected table contents and stats, a randomized
merge checked against a newest-version-per-key dict model, and
`_merge_order` checked against ``np.lexsort((-seqs, keys))`` computed
in the test.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.block.device import BlockDevice
from repro.fs.filesystem import ExtentFilesystem
from repro.lsm.compaction import Compaction, CompactionExecutor
from repro.lsm.config import LSMConfig
from repro.lsm.memtable import KIND_DELETE, KIND_PUT
from repro.lsm.sstable import SSTable
from repro.lsm.version import Version


def make_table(table_id, entries, config):
    """Build an SSTable from [(key, seq, kind), ...] (sorted by key)."""
    entries = sorted(entries)
    keys = np.array([k for k, _, _ in entries], dtype=np.int64)
    seqs = np.array([s for _, s, _ in entries], dtype=np.int64)
    kinds = np.array([kd for _, _, kd in entries], dtype=np.int8)
    n = len(entries)
    return SSTable(
        table_id, config, keys, seqs,
        np.zeros(n, dtype=np.uint64), np.full(n, 64, dtype=np.int64), kinds,
    )


class Harness:
    """A filesystem + version + executor."""

    def __init__(self, tiny_ssd):
        self.config = LSMConfig()
        self.fs = ExtentFilesystem(BlockDevice(tiny_ssd))
        self.version = Version(self.config)
        self.executor = CompactionExecutor(
            self.fs, self.config, lambda c=itertools.count(100): next(c),
        )

    def install(self, level, table):
        self.fs.create(table.filename)
        self.fs.append(table.filename, table.data_bytes, background=True)
        self.version.add(level, table)

    def merge(self, level, output_level, inputs, next_inputs):
        job = Compaction(level, output_level, list(inputs), list(next_inputs))
        assert not job.is_trivial_move
        self.executor.run(job, self.version)
        return self.version.levels[output_level]

    def snapshot(self, tables):
        return [
            (t.keys.tolist(), t.seqs.tolist(), t.kinds.tolist())
            for t in tables
        ]


def run(tiny_ssd_factory, scenario):
    """Run *scenario*; return its result snapshot and the merge stats."""
    h = Harness(tiny_ssd_factory())
    out = scenario(h)
    stats = h.executor.stats
    return out, (
        stats.compactions, stats.entries_merged,
        stats.entries_dropped, stats.tombstones_dropped,
    )


@pytest.fixture
def ssd_factory(tiny_config):
    from repro.core.clock import VirtualClock
    from repro.flash.ssd import SSD

    return lambda: SSD(tiny_config, VirtualClock())


class TestMergeSemantics:
    def test_superseded_key_dropped(self, ssd_factory):
        def scenario(h):
            old = make_table(1, [(10, 1, KIND_PUT), (20, 2, KIND_PUT)], h.config)
            new = make_table(2, [(10, 5, KIND_PUT), (30, 6, KIND_PUT)], h.config)
            h.install(1, new)
            h.install(2, old)
            out = h.merge(1, 2, [new], [old])
            return h.snapshot(out)

        out, stats = run(ssd_factory, scenario)
        (keys, seqs, kinds), = out
        assert keys == [10, 20, 30]
        assert seqs == [5, 2, 6]  # newest seq for key 10 survives
        assert stats == (1, 4, 1, 0)

    def test_tombstone_dropped_at_bottom(self, ssd_factory):
        def scenario(h):
            live = make_table(1, [(1, 1, KIND_PUT), (2, 2, KIND_PUT)], h.config)
            dead = make_table(2, [(2, 9, KIND_DELETE)], h.config)
            h.install(1, dead)
            h.install(2, live)
            # output level 2 == deepest nonempty -> tombstones dropped
            out = h.merge(1, 2, [dead], [live])
            return h.snapshot(out)

        out, stats = run(ssd_factory, scenario)
        (keys, seqs, kinds), = out
        assert keys == [1]  # key 2: put superseded AND tombstone dropped
        assert kinds == [KIND_PUT]
        assert stats == (1, 3, 1, 1)

    def test_tombstone_survives_above_bottom(self, ssd_factory):
        def scenario(h):
            live = make_table(1, [(2, 2, KIND_PUT)], h.config)
            dead = make_table(2, [(2, 9, KIND_DELETE)], h.config)
            deeper = make_table(3, [(50, 3, KIND_PUT)], h.config)
            h.install(1, dead)
            h.install(2, live)
            h.install(3, deeper)  # level 3 nonempty: 2 is not the bottom
            out = h.merge(1, 2, [dead], [live])
            return h.snapshot(out)

        out, stats = run(ssd_factory, scenario)
        (keys, seqs, kinds), = out
        assert keys == [2]
        assert kinds == [KIND_DELETE]  # must survive to shadow deeper puts
        assert stats == (1, 2, 1, 0)

    def test_duplicate_keys_across_inputs_and_next_inputs(self, ssd_factory):
        def scenario(h):
            a = make_table(1, [(5, 10, KIND_PUT), (7, 11, KIND_PUT)], h.config)
            b = make_table(2, [(5, 20, KIND_DELETE), (9, 21, KIND_PUT)], h.config)
            c = make_table(3, [(5, 3, KIND_PUT), (7, 4, KIND_PUT), (9, 5, KIND_PUT)], h.config)
            deeper = make_table(4, [(99, 1, KIND_PUT)], h.config)
            h.install(0, a)
            h.install(0, b)
            h.install(1, c)
            h.install(3, deeper)
            out = h.merge(0, 1, [a, b], [c])
            return h.snapshot(out)

        out, stats = run(ssd_factory, scenario)
        (keys, seqs, kinds), = out
        assert keys == [5, 7, 9]
        assert seqs == [20, 11, 21]  # highest seq per key wins
        assert kinds == [KIND_DELETE, KIND_PUT, KIND_PUT]
        assert stats == (1, 7, 4, 0)

    def test_merge_randomized_matches_dict_model(self, ssd_factory):
        rng = np.random.default_rng(42)
        for trial in range(5):
            merged: list = []  # every entry that entered the merge

            def scenario(h):
                seq = itertools.count(1)
                tables = []
                for tid in range(1, 5):
                    keys = np.unique(rng.integers(0, 60, size=12))
                    entries = [
                        (int(k), next(seq),
                         KIND_DELETE if rng.random() < 0.2 else KIND_PUT)
                        for k in keys
                    ]
                    tables.append(make_table(tid, entries, h.config))
                h.install(0, tables[0])
                h.install(0, tables[1])
                for t in tables[2:]:
                    try:
                        h.version.add(1, t)
                        h.fs.create(t.filename)
                        h.fs.append(t.filename, t.data_bytes, background=True)
                    except Exception:
                        continue  # overlapping level-1 placement: skip table
                next_inputs = [t for t in h.version.levels[1]]
                for t in tables[:2] + next_inputs:
                    merged.extend(zip(t.keys.tolist(), t.seqs.tolist(),
                                      t.kinds.tolist()))
                out = h.merge(0, 1, tables[:2], next_inputs)
                return h.snapshot(out)

            out, stats = run(ssd_factory, scenario)
            # Model: the newest version of each key survives; level 1
            # is the bottom of this tree, so tombstones are dropped.
            newest: dict = {}
            for key, seq, kind in merged:
                if key not in newest or seq > newest[key][0]:
                    newest[key] = (seq, kind)
            want = sorted((k, s, kd) for k, (s, kd) in newest.items()
                          if kd == KIND_PUT)
            got = [row for keys, seqs, kinds in out
                   for row in zip(keys, seqs, kinds)]
            assert got == want, trial
            tombstones = sum(kd == KIND_DELETE for _s, kd in newest.values())
            assert stats == (1, len(merged), len(merged) - len(newest),
                             tombstones), trial


class TestMergeOrder:
    def test_order_matches_lexsort(self, ssd_factory):
        h = Harness(ssd_factory())
        rng = np.random.default_rng(7)
        for _ in range(50):
            runs = []
            for _ in range(int(rng.integers(1, 6))):
                keys = np.unique(rng.integers(0, 300, size=int(rng.integers(1, 80))))
                seqs = rng.integers(0, 1 << 20, size=keys.size)
                runs.append((keys.astype(np.int64), seqs.astype(np.int64)))
            keys = np.concatenate([k for k, _ in runs])
            seqs = np.concatenate([s for _, s in runs])
            got = h.executor._merge_order(keys, seqs)
            want = np.lexsort((-seqs, keys))
            assert np.array_equal(got, want)

    def test_order_overflow_falls_back(self, ssd_factory):
        h = Harness(ssd_factory())
        keys = np.array([1 << 23, 1 << 24], dtype=np.int64)  # beyond packing
        seqs = np.array([5, 3], dtype=np.int64)
        got = h.executor._merge_order(keys, seqs)
        assert np.array_equal(got, np.lexsort((-seqs, keys)))
