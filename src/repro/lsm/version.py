"""The LSM tree's level manifest (RocksDB's "version").

L0 holds flushed memtables, newest first, with overlapping key ranges.
L1 and deeper hold sorted runs: files with pairwise-disjoint key
ranges, kept ordered by ``min_key`` so point lookups and overlap
queries are binary searches.

Batched reads go through a lazily built *read index* (DESIGN.md §13.1,
§13.2): a key batch resolves in one pass over the whole manifest's
point index, and a scan merges and plans its reads over per-run
columns — a whole L1+ level, or one L0 table — not per table.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from repro.errors import ConfigError
from repro.lsm.bloom import probe_matrix
from repro.lsm.config import LSMConfig
from repro.lsm.memtable import KIND_PUT, pack_scan_comp
from repro.lsm.sstable import SSTable


class ReadRun:
    """Scan group of one sorted run: disjoint tables ordered by key.

    Per table: its first and last entries' positions in the run, max
    key and filename.  Per entry, built by the run's first scan
    (``LSMStore._scan_merge``): the packed composite ``comp`` — sorted,
    the key being its high bits — with ``vlens``, each entry's byte
    bounds ``lo``/``hi`` in its table's file, and per table its first
    entry's device runs by the filesystem's ``byte_runs``
    (``head_runs``; a table's file never changes while in the manifest).
    """

    def __init__(self, tables: list[SSTable]):
        self.tables = tables
        self.max_keys = np.array([t.max_key for t in tables], dtype=np.int64)
        self.names = np.array([t.filename for t in tables], dtype=object)
        self.starts = np.cumsum([0] + [t.nentries for t in tables[:-1]])
        self.lasts = np.cumsum([t.nentries for t in tables]) - 1
        self.comp = None

    def build_scan_columns(self, byte_runs) -> None:
        tables = self.tables
        self.comp = pack_scan_comp(
            np.concatenate([t.keys for t in tables]),
            np.concatenate([t.seqs for t in tables]),
            np.concatenate([t.kinds for t in tables]))
        self.vlens = np.concatenate([t.vlens for t in tables])
        self.lo = np.concatenate([t._offsets[:-1] for t in tables])
        self.hi = np.concatenate([t._offsets[1:] for t in tables])
        self.byte_runs = byte_runs
        self.head_runs = [byte_runs(t.filename, 0, int(t._offsets[1]))
                          for t in tables]


class PointIndex:
    """Point-read index of a non-empty manifest's *runs*, in probe
    order (DESIGN.md §13.2): keys clamped to [``lo``, ``hi``], moved by
    ``-lo`` and, in run *r*, by ``shift[r]``, so all runs' tables and
    entries concatenate into sorted columns.  Each run starts with a
    sentinel table (name None, mask 0) that takes the keys below its
    tables and admits none.  Per table: key range, filename, first
    entry and bloom ``base``/``mask`` in one bit slab (``bits``; None
    without filters).  Per entry: key, data-block extent
    (:meth:`SSTable.read_extents`) and the user bytes a hit returns.
    """

    def __init__(self, runs: list[list[SSTable]], config: LSMConfig):
        tables = [t for run in runs for t in run]
        lo = min(t.min_key for t in tables) - 1
        hi = max(t.max_key for t in tables) + 1
        stride = hi - lo + 1
        int64 = np.iinfo(np.int64)
        if lo < int64.min or hi > int64.max or len(runs) * stride > int64.max:
            raise ConfigError(f"{len(runs)} runs over keys [{lo + 1}, "
                              f"{hi - 1}] overflow the int64 point index")
        self.lo, self.hi = lo, hi
        self.shift = np.arange(len(runs), dtype=np.int64) * stride
        slots = [t for run in runs for t in (None, *run)]
        at = np.repeat(self.shift, [len(run) + 1 for run in runs])
        self.min_keys = at + [0 if t is None else t.min_key - lo for t in slots]
        self.max_keys = at + [-1 if t is None else t.max_key - lo for t in slots]
        self.names = np.array([t and t.filename for t in slots], dtype=object)
        nentries = np.array([0 if t is None else t.nentries for t in slots])
        self.starts = np.cumsum(nentries) - nentries
        self.keys = np.repeat(at, nentries) + (
            np.concatenate([t.keys for t in tables]) - lo)
        extents = [t.read_extents() for t in tables]
        self.offsets = np.concatenate([offsets for offsets, _ in extents])
        self.nbytes = np.concatenate([nbytes for _, nbytes in extents])
        self.hit_bytes = np.where(
            np.concatenate([t.kinds for t in tables]) == KIND_PUT,
            np.concatenate([t.vlens for t in tables]) + config.key_bytes, 0)
        self.bits = None
        if config.bloom_bits_per_key > 0:
            sizes = np.array([0 if t is None else t.bloom.nbits
                              for t in slots], dtype=np.uint64)
            self.k = tables[0].bloom.k
            self.bits = np.concatenate([t.bloom._bits for t in tables])
            self.mask = np.maximum(sizes, 1) - np.uint64(1)  # sentinel: 0
            self.base = np.cumsum(sizes) - sizes


class Version:
    """Mutable manifest: which SSTables live on which level."""

    def __init__(self, config: LSMConfig):
        self.config = config
        self.levels: list[list[SSTable]] = [[] for _ in range(config.num_levels)]
        self._level_bytes = [0] * config.num_levels
        self._min_keys: list[list[int]] = [[] for _ in range(config.num_levels)]
        # Scan groups: per level its list of ReadRuns, or None when a
        # manifest change on that level made it stale (rebuilt by the
        # next scan).  Any change drops the whole point index.
        self._read_runs: list[list[ReadRun] | None] = [None] * config.num_levels
        self._point_index: PointIndex | None = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, level: int, table: SSTable) -> None:
        """Install a table on a level (front of L0, sorted for L1+)."""
        self._check_level(level)
        if level == 0:
            self.levels[0].insert(0, table)
        else:
            idx = bisect_right(self._min_keys[level], table.min_key)
            self.levels[level].insert(idx, table)
            self._min_keys[level].insert(idx, table.min_key)
        self._level_bytes[level] += table.data_bytes
        self._read_runs[level] = None
        self._point_index = None

    def remove(self, level: int, table: SSTable) -> None:
        """Uninstall a table from a level."""
        self._check_level(level)
        idx = self.levels[level].index(table)
        del self.levels[level][idx]
        if level > 0:
            del self._min_keys[level][idx]
        self._level_bytes[level] -= table.data_bytes
        self._read_runs[level] = None
        self._point_index = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def level_bytes(self, level: int) -> int:
        """Serialized bytes currently on a level."""
        self._check_level(level)
        return self._level_bytes[level]

    def all_tables(self):
        """Iterate over (level, table) pairs, top level first."""
        for level, tables in enumerate(self.levels):
            for table in tables:
                yield level, table

    def overlapping(self, level: int, min_key: int, max_key: int) -> list[SSTable]:
        """Tables on *level* whose key range intersects [min_key, max_key]."""
        self._check_level(level)
        if level == 0:
            return [t for t in self.levels[0] if t.overlaps(min_key, max_key)]
        # Sorted level: candidates start at the last file whose min_key
        # is <= max_key and extend left while ranges still intersect.
        tables = self.levels[level]
        lo = bisect_left(self._min_keys[level], min_key)
        if lo > 0 and tables[lo - 1].max_key >= min_key:
            lo -= 1
        hi = bisect_right(self._min_keys[level], max_key)
        return tables[lo:hi]

    def find_table(self, level: int, key: int) -> SSTable | None:
        """The unique table on a sorted level that may hold *key*."""
        self._check_level(level)
        if level == 0:
            raise ConfigError("find_table is for sorted levels; probe L0 in order")
        idx = bisect_right(self._min_keys[level], key) - 1
        if idx < 0:
            return None
        table = self.levels[level][idx]
        return table if key <= table.max_key else None

    def _run_tables(self, level: int) -> list[list[SSTable]]:
        """The level's tables grouped into sorted runs: every L0 table
        is its own run, a deeper level is one."""
        tables = self.levels[level]
        if level == 0:
            return [[table] for table in tables]
        return [list(tables)] if tables else []

    def runs(self):
        """The scan groups in probe order (L0 newest first, then one
        per sorted level), rebuilding stale levels."""
        for level in range(self.config.num_levels):
            runs = self._read_runs[level]
            if runs is None:
                runs = self._read_runs[level] = [
                    ReadRun(group) for group in self._run_tables(level)]
            yield from runs

    def _point_runs(self) -> list[list[SSTable]]:
        return [group for level in range(self.config.num_levels)
                for group in self._run_tables(level)]

    def plan_reads(self, keys: np.ndarray, ops: np.ndarray) -> tuple:
        """Every data-block read the per-key probe walk would issue.

        *ops* are the ascending positions in *keys* to resolve (the
        memtable misses).  Per key the reads are ``LSMStore._find``'s:
        in probe order, one per table whose range and filter admit the
        key (entry 0's block on a false positive) up to its first hit,
        resolved in one pass over the (keys × runs) :class:`PointIndex`
        matrix, whose key-major, run-ascending pairs are the rows.

        Returns ``(bounds, names, offsets, nbytes, hit_bytes)`` as
        lists: op *i* reads rows ``bounds[i]:bounds[i + 1]`` of the
        three row columns in order and is credited ``hit_bytes[i]``.
        """
        n = len(keys)
        hit_bytes = np.zeros(n, dtype=np.int64)
        if not len(ops) or not any(self.levels):
            return [0] * (n + 1), [], [], [], hit_bytes.tolist()
        index = self._point_index
        if index is None:
            index = self._point_index = PointIndex(self._point_runs(),
                                                   self.config)
        # Clamped, never raw: a key below lo meets each sentinel as lo.
        k = keys[ops]
        q = (np.minimum(np.maximum(k, index.lo), index.hi)
             - index.lo)[:, None] + index.shift
        t = index.min_keys.searchsorted(q, side="right") - 1
        pair = np.flatnonzero(q <= index.max_keys[t])
        t, q = t.ravel()[pair], q.ravel()[pair]
        row = pair // len(index.shift)
        if index.bits is not None:
            probes = probe_matrix(k, index.k)[row]
            passed = index.bits[(probes & index.mask[t, None])
                                + index.base[t, None]].all(axis=1)
            row, t, q = row[passed], t[passed], q[passed]
        pos = index.keys.searchsorted(q)
        hit = index.keys[pos] == q
        pos = np.where(hit, pos, index.starts[t])
        # A key's first hit ends its walk: keep the pairs with no hit
        # before them in their row (a row's pairs are contiguous).
        before = np.cumsum(hit) - hit
        kept = before == before[row.searchsorted(row)]
        probed, t, pos, hit = ops[row[kept]], t[kept], pos[kept], hit[kept]
        hit_bytes[probed[hit]] = index.hit_bytes[pos[hit]]
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(probed, minlength=n), out=bounds[1:])
        return (bounds.tolist(), index.names[t].tolist(),
                index.offsets[pos].tolist(), index.nbytes[pos].tolist(),
                hit_bytes.tolist())

    def deepest_nonempty_level(self) -> int:
        """Index of the deepest level with data, or -1 when empty."""
        for level in range(self.config.num_levels - 1, -1, -1):
            if self.levels[level]:
                return level
        return -1

    # ------------------------------------------------------------------
    # Consistency
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify manifest consistency; raises ``AssertionError`` on bugs."""
        if self._point_index is not None:  # a built index is a fresh one
            fresh = PointIndex(self._point_runs(), self.config)
            for name, value in vars(fresh).items():
                assert np.array_equal(value, getattr(self._point_index, name)), name
        for level, tables in enumerate(self.levels):
            assert self._level_bytes[level] == sum(t.data_bytes for t in tables)
            runs = self._read_runs[level]
            if runs is not None:  # built scan groups mirror the level
                assert [run.tables for run in runs] == self._run_tables(level)
                for run in runs:  # and hold what a fresh build would
                    fresh = ReadRun(run.tables)
                    if run.comp is not None:  # and a fresh head resolution
                        fresh.build_scan_columns(run.byte_runs)
                        assert fresh.head_runs == run.head_runs
                    for name, column in vars(fresh).items():
                        if isinstance(column, np.ndarray):
                            assert np.array_equal(column, getattr(run, name)), name
            if level == 0:
                continue
            assert self._min_keys[level] == [t.min_key for t in tables]
            for left, right in zip(tables, tables[1:]):
                assert left.max_key < right.min_key, (
                    f"L{level} files overlap: "
                    f"[{left.min_key},{left.max_key}] vs "
                    f"[{right.min_key},{right.max_key}]"
                )

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.config.num_levels:
            raise ConfigError(f"level {level} out of range")

