"""What an LSM read must return and pay, written the slow obvious way.

The reference for ``LSMStore``'s read paths (DESIGN.md §13.4): a scan
as a ``heapq`` merge over one iterator per memtable and per table, a
get as a walk over the tables one at a time.  Each returns the answer
and the ``(filename, offset, nbytes)`` reads, in order, that the store
must charge for it.  It reads the store's data — memtable dicts, the
manifest's levels, a table's columns, offsets and bloom filter — and
shares no code with ``repro.lsm.store`` or ``repro.lsm.version``; it
touches neither the clock nor any counter.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.kv.values import Value
from repro.lsm.memtable import KIND_PUT


def _memtables(store) -> list[dict]:
    """Memtable dicts, oldest first (the active one last)."""
    return [m._entries for m, _wal in store._immutables] + [store.memtable._entries]


def scan(store, start_key: int, count: int):
    """``(pairs, reads)`` of ``store.scan(start_key, count)``.

    Every source is opened at its first key >= *start_key* and the
    merge holds one entry pulled ahead of each, so a table is read
    from its first pulled entry to its last, whether or not the pulled
    entries were emitted; a table that ends below *start_key* is never
    opened.
    """
    heap: list = []
    windows: list = []   # [table, first, one past the last pulled]

    def pull(source) -> None:
        for key, seq, vseed, vlen, kind in source:
            # Newest version of a key first: sequence numbers are unique.
            heapq.heappush(heap, (key, -seq, vseed, vlen, kind, source))
            return

    def table_entries(table, window):
        for idx in range(window[1], table.nentries):
            window[2] = idx + 1
            yield table.entry(idx)

    for entries in _memtables(store):
        pull(iter(sorted((key, *entry) for key, entry in entries.items()
                         if key >= start_key)))
    for _level, table in store.version.all_tables():
        if table.max_key >= start_key:
            first = int(np.searchsorted(table.keys, start_key))
            windows.append([table, first, first])
            pull(table_entries(table, windows[-1]))

    pairs: list = []
    last_key = None
    while heap and len(pairs) < count:
        key, _negseq, vseed, vlen, kind, source = heapq.heappop(heap)
        pull(source)
        if key != last_key and kind == KIND_PUT:
            pairs.append((key, Value(vseed, vlen)))
        last_key = key
    reads = [(table.filename, int(table._offsets[first]),
              int(table._offsets[end] - table._offsets[first]))
             for table, first, end in windows if end > first]
    return pairs, reads


def get(store, key: int):
    """``(value, reads)`` of ``store.get(key)``: memtables newest
    first, L0 newest first, then the one table per level whose range
    holds the key.  A table is read when its range and bloom filter
    admit the key — the block of the entry when it is there, the
    table's first block on a false positive."""
    for entries in reversed(_memtables(store)):
        if key in entries:
            _seq, vseed, vlen, kind = entries[key]
            return (Value(vseed, vlen) if kind == KIND_PUT else None), []
    reads: list = []
    for tables in store.version.levels:
        for table in tables:
            if not table.min_key <= key <= table.max_key:
                continue
            if table.bloom is not None and not table.bloom.may_contain(key):
                continue
            idx = int(np.searchsorted(table.keys, key))
            found = int(table.keys[idx]) == key
            reads.append((table.filename, *table.read_extent(idx if found else 0)))
            if found:
                _key, _seq, vseed, vlen, kind = table.entry(idx)
                return (Value(vseed, vlen) if kind == KIND_PUT else None), reads
    return None, reads
