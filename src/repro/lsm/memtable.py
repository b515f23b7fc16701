"""The in-memory write buffer of the LSM engine (§2.1.1).

Incoming writes are buffered here; when the memtable reaches its
configured size it is made immutable and flushed to L0 as an SSTable.
Entries carry a global sequence number so that flush/compaction can
order versions of the same key.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

from repro.errors import ConfigError
from repro.lsm.config import LSMConfig

KIND_PUT = 0
KIND_DELETE = 1

#: Packed scan composite (DESIGN.md §13): ``key << 37 | (2^36-1 - seq)
#: << 1 | kind`` as uint64.  Strictly monotone in (key asc, seq desc)
#: — sequence numbers are globally unique, so the kind bit never
#: decides an ordering — which lets the scan merge sort, bound, dedupe
#: and kind-test source windows from one cached column instead of
#: three.  ``key < 2^26`` and ``seq < 2^36`` keep the packing inside
#: 63 bits (2^26 keys do not fit a Python process; the paper's FULL
#: scale has 52 k); a scan over anything outside that range is a
#: :class:`~repro.errors.ConfigError`.
SCAN_SEQ_SPAN = 1 << 36
SCAN_KEY_SPAN = 1 << 26
SCAN_KEY_SHIFT = np.uint64(37)
SCAN_KIND_BIT = np.uint64(1)


def pack_scan_comp(keys: np.ndarray, seqs: np.ndarray,
                   kinds: np.ndarray) -> np.ndarray:
    """The packed uint64 scan-composite column for one merge source."""
    return ((keys.astype(np.uint64) << SCAN_KEY_SHIFT)
            | ((np.uint64(SCAN_SEQ_SPAN - 1) - seqs.astype(np.uint64)) << SCAN_KIND_BIT)
            | kinds.astype(np.uint64))


class MemTable:
    """A mutable buffer of the newest writes, keyed by integer key."""

    __slots__ = ("config", "_entries", "approximate_bytes", "_column_cache")

    def __init__(self, config: LSMConfig):
        self.config = config
        # key -> (seq, vseed, vlen, kind); a plain dict because each key
        # keeps only its newest in-memtable version, like a skiplist
        # with upserts would.
        self._entries: dict[int, tuple[int, int, int, int]] = {}
        self.approximate_bytes = 0
        self._column_cache: tuple | None = None  # see sorted_columns()

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key: int, seq: int, vseed: int, vlen: int) -> None:
        """Record a put; accounting grows by the full entry size."""
        self._entries[key] = (seq, vseed, vlen, KIND_PUT)
        self.approximate_bytes += self.config.key_bytes + self.config.entry_overhead + vlen

    def delete(self, key: int, seq: int) -> None:
        """Record a tombstone."""
        self._entries[key] = (seq, 0, 0, KIND_DELETE)
        self.approximate_bytes += self.config.key_bytes + self.config.entry_overhead

    def get(self, key: int) -> tuple[int, int, int, int] | None:
        """Newest in-memtable entry for *key*, or None."""
        return self._entries.get(key)

    @property
    def full(self) -> bool:
        """Whether the memtable reached its flush threshold."""
        return self.approximate_bytes >= self.config.memtable_bytes

    # ------------------------------------------------------------------
    # Bulk write path (DESIGN.md §6)
    # ------------------------------------------------------------------
    def bulk_put(self, keys: list[int], first_seq: int,
                 vseeds: list[int], vlen: int) -> None:
        """Batched equal-size puts as one dict update.

        Equivalent to ``put(keys[i], first_seq + i, vseeds[i], vlen)``
        for every *i*; callers bound the batch so that the memtable
        stays below its flush threshold and no rotation is skipped.
        """
        n = len(keys)
        self._entries.update(zip(keys, zip(
            range(first_seq, first_seq + n), vseeds, (vlen,) * n, (KIND_PUT,) * n
        )))
        self.approximate_bytes += n * (
            self.config.key_bytes + self.config.entry_overhead + vlen
        )

    def bulk_delete(self, keys: list[int], first_seq: int) -> None:
        """Batched tombstones as one dict update (see :meth:`bulk_put`)."""
        n = len(keys)
        self._entries.update(zip(keys, zip(
            range(first_seq, first_seq + n), (0,) * n, (0,) * n, (KIND_DELETE,) * n
        )))
        self.approximate_bytes += n * (self.config.key_bytes + self.config.entry_overhead)

    def sorted_arrays(self) -> tuple[np.ndarray, ...]:
        """Entries as (keys, seqs, vseeds, vlens, kinds), sorted by key.

        This is the flush representation consumed by the SSTable
        builder.
        """
        if not self._entries:
            empty64 = np.empty(0, dtype=np.int64)
            return (empty64, empty64.copy(), np.empty(0, dtype=np.uint64),
                    empty64.copy(), np.empty(0, dtype=np.int8))
        keys = np.fromiter(self._entries.keys(), dtype=np.int64, count=len(self._entries))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        rows = list(self._entries.values())
        seqs = np.fromiter((r[0] for r in rows), dtype=np.int64, count=len(rows))[order]
        # Value seeds are full-range 64-bit hashes, hence unsigned.
        vseeds = np.fromiter((r[1] for r in rows), dtype=np.uint64, count=len(rows))[order]
        vlens = np.fromiter((r[2] for r in rows), dtype=np.int64, count=len(rows))[order]
        kinds = np.fromiter((r[3] for r in rows), dtype=np.int8, count=len(rows))[order]
        return keys, seqs, vseeds, vlens, kinds

    def sorted_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Key-ordered (scan_comp, vlens) columns for the scan merge
        (DESIGN.md §13.1).  Raises :class:`ConfigError` when a key
        falls outside the composite packing (checked before anything
        is packed: a negative key would wrap into the high bits).

        Memoized against ``approximate_bytes``, which grows on *every*
        mutation: puts and tombstones both add at least ``key_bytes``,
        which :class:`~repro.lsm.config.LSMConfig` validates as
        positive.  So consecutive scans between writes reuse one
        conversion and immutable memtables convert once.  The merge
        kernel derives key, recency and kind from the composite by bit
        ops, and a memtable holds one version per key, so sorting the
        composite sorts by key; value seeds are omitted entirely (the
        scan merge only accounts byte counts).
        """
        cache = self._column_cache
        if cache is not None and cache[0] == self.approximate_bytes:
            return cache[1]
        n = len(self._entries)
        keys = np.fromiter(self._entries.keys(), dtype=np.int64, count=n)
        if n and (keys.min() < 0 or keys.max() >= SCAN_KEY_SPAN):
            raise ConfigError(
                f"scans need keys in [0, {SCAN_KEY_SPAN}); the memtable "
                f"holds [{keys.min()}, {keys.max()}]")
        seqs, vlens, kinds = (
            np.fromiter(map(itemgetter(field), self._entries.values()),
                        dtype=np.int64, count=n) for field in (0, 2, 3))
        comp = pack_scan_comp(keys, seqs, kinds)
        order = np.argsort(comp)
        columns = (comp[order], vlens[order])
        self._column_cache = (self.approximate_bytes, columns)
        return columns
