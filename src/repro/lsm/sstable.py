"""Sorted string tables: the immutable on-disk files of the LSM tree.

An SSTable keeps its (sorted) key column and per-entry metadata as
numpy arrays in memory — the simulated filesystem stores only byte
counts — plus a bloom filter and a cumulative-offset column used to
charge data-block reads at the right file offsets.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.lsm.bloom import BloomFilter
from repro.lsm.config import LSMConfig
from repro.lsm.memtable import KIND_DELETE, KIND_PUT


class SSTable:
    """One immutable sorted run of entries."""

    def __init__(
        self,
        table_id: int,
        config: LSMConfig,
        keys: np.ndarray,
        seqs: np.ndarray,
        vseeds: np.ndarray,
        vlens: np.ndarray,
        kinds: np.ndarray,
    ):
        if len(keys) == 0:
            raise ConfigError("an SSTable must contain at least one entry")
        if not np.all(keys[1:] > keys[:-1]):
            raise ConfigError("SSTable keys must be strictly increasing")
        self.table_id = table_id
        #: The file backing this table in the simulated filesystem.
        self.filename = f"{table_id:06d}.sst"
        self.config = config
        self.keys = keys
        self.seqs = seqs
        self.vseeds = vseeds
        self.vlens = vlens
        self.kinds = kinds

        entry_bytes = config.key_bytes + config.entry_overhead + vlens
        self._offsets = np.zeros(len(keys) + 1, dtype=np.int64)
        np.cumsum(entry_bytes, out=self._offsets[1:])
        self.min_key = int(keys[0])
        self.max_key = int(keys[-1])
        self._bloom: BloomFilter | None = None
        self._bloom_enabled = config.bloom_bits_per_key > 0

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @property
    def nentries(self) -> int:
        """Number of entries (including tombstones)."""
        return len(self.keys)

    @property
    def bloom(self) -> BloomFilter | None:
        """The table's bloom filter, or None when disabled (ablation).

        Built lazily on first use: filters are memory-resident and cost
        no device I/O, so deferring construction to the first probe is
        invisible to every simulated metric — and update-only
        workloads (the paper's default) never pay for it at all.
        """
        if self._bloom is None and self._bloom_enabled:
            bloom = BloomFilter(len(self.keys), self.config.bloom_bits_per_key)
            bloom.add_many(self.keys)
            self._bloom = bloom
        return self._bloom

    @property
    def data_bytes(self) -> int:
        """Serialized size of the table's data."""
        return int(self._offsets[-1])

    def overlaps(self, min_key: int, max_key: int) -> bool:
        """Whether the table's key range intersects [min_key, max_key]."""
        return self.min_key <= max_key and min_key <= self.max_key

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def may_contain(self, key: int) -> bool:
        """Bloom-filter test (no device I/O; filters are cached)."""
        if key < self.min_key or key > self.max_key:
            return False
        if not self._bloom_enabled:
            return True  # no filter: every in-range probe pays a read
        return self.bloom.may_contain(key)

    def find(self, key: int) -> int:
        """Index of *key* in the table, or -1."""
        idx = int(np.searchsorted(self.keys, key))
        if idx < len(self.keys) and int(self.keys[idx]) == key:
            return idx
        return -1

    def entry(self, idx: int) -> tuple[int, int, int, int, int]:
        """(key, seq, vseed, vlen, kind) at *idx*."""
        return (
            int(self.keys[idx]),
            int(self.seqs[idx]),
            int(self.vseeds[idx]),
            int(self.vlens[idx]),
            int(self.kinds[idx]),
        )

    def read_extent(self, idx: int) -> tuple[int, int]:
        """(offset, nbytes) of the data block holding entry *idx*.

        The block is the config's block size or the entry itself if
        larger (large values span blocks, as in RocksDB).
        """
        start = int(self._offsets[idx])
        nbytes = max(self.config.block_bytes, int(self._offsets[idx + 1]) - start)
        end = min(start + nbytes, self.data_bytes)
        block_start = (start // self.config.block_bytes) * self.config.block_bytes
        return block_start, end - block_start

    def read_extents(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`read_extent` of every entry, as (offsets, nbytes) columns."""
        block = self.config.block_bytes
        start = self._offsets[:-1]
        end = np.minimum(start + np.maximum(block, self._offsets[1:] - start),
                         self._offsets[-1])
        block_start = start // block * block
        return block_start, end - block_start

    def check_invariants(self) -> None:
        """Verify table consistency; raises ``AssertionError`` on bugs."""
        assert np.all(self.keys[1:] > self.keys[:-1])
        assert np.all(self.vlens >= 0)
        assert np.all((self.kinds == KIND_PUT) | (self.kinds == KIND_DELETE))
        assert np.all(self.vlens[self.kinds == KIND_DELETE] == 0)
        assert self._offsets[-1] == (
            self.config.key_bytes + self.config.entry_overhead
        ) * self.nentries + int(self.vlens.sum())


def split_into_tables(
    next_id,
    config: LSMConfig,
    keys: np.ndarray,
    seqs: np.ndarray,
    vseeds: np.ndarray,
    vlens: np.ndarray,
    kinds: np.ndarray,
) -> list[SSTable]:
    """Split merged entry arrays into tables of ~target_file_bytes.

    *next_id* is a callable returning fresh table ids.
    """
    if len(keys) == 0:
        return []
    entry_bytes = config.key_bytes + config.entry_overhead + vlens
    cumulative = np.cumsum(entry_bytes)
    tables: list[SSTable] = []
    start = 0
    base = 0
    while start < len(keys):
        # First index whose cumulative size exceeds one target file.
        cut = int(np.searchsorted(cumulative, base + config.target_file_bytes)) + 1
        cut = min(max(cut, start + 1), len(keys))
        tables.append(
            SSTable(
                next_id(),
                config,
                keys[start:cut].copy(),
                seqs[start:cut].copy(),
                vseeds[start:cut].copy(),
                vlens[start:cut].copy(),
                kinds[start:cut].copy(),
            )
        )
        base = int(cumulative[cut - 1])
        start = cut
    return tables
