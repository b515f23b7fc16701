"""The LSM tree's level manifest (RocksDB's "version").

L0 holds flushed memtables, newest first, with overlapping key ranges.
L1 and deeper hold sorted runs: files with pairwise-disjoint key
ranges, kept ordered by ``min_key`` so point lookups and overlap
queries are binary searches.

Batched reads go through a lazily built *read index* (DESIGN.md §13.1,
§13.2): per sorted run — a whole L1+ level, or one L0 table — the
tables' columns concatenated into one, so a key batch resolves, and a
scan merges and plans its reads, in array operations per level, not
per table.
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
    """Read index of one sorted run: disjoint tables ordered by key.

    Per table: its first and last entries' positions in the run, key
    range and filename.  Per entry, the tables' columns concatenated,
    each group built by its first user.  Point reads
    (:meth:`Version.plan_reads`): the globally sorted ``keys`` with the
    data-block extent (:meth:`SSTable.read_extent`, precomputed; entry
    0's is what a bloom false positive is charged) and the user bytes a
    hit returns (0 for a tombstone), plus the ``base``/``mask``
    locating each table's bloom filter inside the run's one bit slab
    (``bits`` is None when filters are disabled).  Scans
    (``LSMStore._scan_merge``): the packed composite ``comp`` — sorted
    as well, the key being its high bits — with ``vlens`` and each
    entry's byte bounds ``lo``/``hi`` in its table's file.
    """

    def __init__(self, tables: list[SSTable], config: LSMConfig):
        self.tables = tables
        self.config = config
        self.min_keys = np.array([t.min_key for t in tables], dtype=np.int64)
        self.max_keys = np.array([t.max_key for t in tables], dtype=np.int64)
        self.names = np.array([t.filename for t in tables], dtype=object)
        self.starts = np.cumsum([0] + [t.nentries for t in tables[:-1]])
        self.lasts = np.cumsum([t.nentries for t in tables]) - 1
        self.keys = self.comp = None

    def build_point_columns(self) -> None:
        tables, config = self.tables, self.config
        self.keys = np.concatenate([t.keys for t in tables])
        extents = [t.read_extents() for t in tables]
        self.offsets = np.concatenate([offsets for offsets, _ in extents])
        self.nbytes = np.concatenate([nbytes for _, nbytes in extents])
        self.hit_bytes = np.where(
            np.concatenate([t.kinds for t in tables]) == KIND_PUT,
            np.concatenate([t.vlens for t in tables]) + config.key_bytes, 0)
        self.bits = None
        if config.bloom_bits_per_key > 0:
            blooms = [t.bloom for t in tables]
            sizes = np.array([b.nbits for b in blooms], dtype=np.uint64)
            self.k = blooms[0].k
            self.bits = np.concatenate([b._bits for b in blooms])
            self.mask = sizes - np.uint64(1)
            self.base = np.cumsum(sizes) - sizes

    def build_scan_columns(self) -> None:
        tables = self.tables
        self.comp = pack_scan_comp(
            np.concatenate([t.keys for t in tables]),
            np.concatenate([t.seqs for t in tables]),
            np.concatenate([t.kinds for t in tables]))
        self.vlens = np.concatenate([t.vlens for t in tables])
        self.lo = np.concatenate([t._offsets[:-1] for t in tables])
        self.hi = np.concatenate([t._offsets[1:] for t in tables])


class Version:
    """Mutable manifest: which SSTables live on which level."""

    def __init__(self, config: LSMConfig):
        self.config = config
        self.levels: list[list[SSTable]] = [[] for _ in range(config.num_levels)]
        self._level_bytes = [0] * config.num_levels
        self._min_keys: list[list[int]] = [[] for _ in range(config.num_levels)]
        # Read index: per level its list of ReadRuns, or None when a
        # manifest change on that level made it stale (rebuilt by the
        # next plan_reads; the other levels keep theirs).
        self._read_runs: list[list[ReadRun] | None] = [None] * config.num_levels

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

    def remove(self, level: int, table: SSTable) -> None:
        """Uninstall a table from a level."""
        self._check_level(level)
        idx = self.levels[level].index(table)
        del self.levels[level][idx]
        if level > 0:
            del self._min_keys[level][idx]
        self._level_bytes[level] -= table.data_bytes
        self._read_runs[level] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def level_bytes(self, level: int) -> int:
        """Serialized bytes currently on a level."""
        self._check_level(level)
        return self._level_bytes[level]

    @property
    def total_files(self) -> int:
        """Number of live SSTables."""
        return sum(len(level) for level in self.levels)

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
        """The read index's runs in probe order (L0 newest first, then
        one per sorted level), rebuilding stale levels."""
        for level in range(self.config.num_levels):
            runs = self._read_runs[level]
            if runs is None:
                runs = self._read_runs[level] = [
                    ReadRun(group, self.config)
                    for group in self._run_tables(level)]
            yield from runs

    def plan_reads(self, keys: np.ndarray, ops: np.ndarray) -> tuple:
        """Every data-block read the per-key probe walk would issue.

        *ops* are the positions in *keys* to resolve (the keys that
        missed every memtable).  Runs are walked in the scalar read
        path's order — L0 newest first, then one run per sorted level —
        and a key drops out at its first hit, so per key the reads are
        exactly ``LSMStore._find``'s: one per table whose range and
        bloom filter admit the key, entry 0's block on a false
        positive.  Per run: one ``searchsorted`` assigns tables, one
        gather over the bit slab gives the bloom verdicts, one
        ``searchsorted`` finds the entries.

        Returns ``(bounds, names, offsets, nbytes, hit_bytes)`` as
        lists: op *i* reads rows ``bounds[i]:bounds[i + 1]`` of the
        three row columns in order and is credited ``hit_bytes[i]``.
        """
        n = len(keys)
        hit_bytes = np.zeros(n, dtype=np.int64)
        rows = []
        probes = None
        for run in self.runs():
            if not len(ops):
                break
            if run.keys is None:
                run.build_point_columns()
            k = keys[ops]
            t = run.min_keys.searchsorted(k, side="right") - 1
            sel = np.flatnonzero((t >= 0) & (k <= run.max_keys[t]))
            if run.bits is not None and len(sel):
                if probes is None:
                    probes = probe_matrix(keys, run.k)
                ts = t[sel, None]
                bit = (probes[ops[sel]] & run.mask[ts]) + run.base[ts]
                sel = sel[run.bits[bit].all(axis=1)]
            if not len(sel):
                continue
            t, k, probed = t[sel], k[sel], ops[sel]
            pos = run.keys.searchsorted(k)
            hit = run.keys[pos] == k
            pos = np.where(hit, pos, run.starts[t])
            rows.append((probed, run.names[t], run.offsets[pos],
                         run.nbytes[pos]))
            hit_bytes[probed[hit]] = run.hit_bytes[pos[hit]]
            alive = np.ones(len(ops), dtype=bool)
            alive[sel[hit]] = False
            ops = ops[alive]
        if not rows:
            return [0] * (n + 1), [], [], [], hit_bytes.tolist()
        probed = np.concatenate([row[0] for row in rows])
        # Stable: a key's rows stay in run (= probe) order.
        order = np.argsort(probed, kind="stable")
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(probed, minlength=n), out=bounds[1:])
        names, offsets, nbytes = (
            np.concatenate([row[col] for row in rows])[order].tolist()
            for col in (1, 2, 3))
        return bounds.tolist(), names, offsets, nbytes, hit_bytes.tolist()

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
        for level, tables in enumerate(self.levels):
            assert self._level_bytes[level] == sum(t.data_bytes for t in tables)
            runs = self._read_runs[level]
            if runs is not None:  # a built read index must mirror the level
                assert [run.tables for run in runs] == self._run_tables(level)
                for run in runs:  # and hold what a fresh build would
                    fresh = ReadRun(run.tables, self.config)
                    if run.keys is not None:
                        fresh.build_point_columns()
                    if run.comp is not None:
                        fresh.build_scan_columns()
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
