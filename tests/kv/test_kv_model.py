"""Both engines in lockstep with a dict (ROADMAP item 1(b)).

The model is a ``dict`` of live keys, the ``KVStats`` counters an op
must move, and per key the versions a crash may take it back to.
Hypothesis draws per-op **and** batch calls alike — ``put``/``put_many``,
``delete``/``delete_many``, ``get``/``get_many``, ``scan``/``scan_many``,
``flush``, ``crash_and_recover`` — over a dense key range (overwrites
and tombstones pile up), a spread one (every table of every level) and
the top eight keys the LSM's scan packing admits (a per-op call is a
one-op batch that returns what it read).  Per-op reads are compared
with the dict, batch reads through the ``user_bytes_read`` they must
add up to; a crash may lose only keys written since the last sync,
each falling back to a version it held before; the final
``scan(0, 2^40)`` is the sorted dict.  On the B+Tree every step also
keeps the journal arithmetic: one record per write, its payload behind
a 32-byte header, laid end to end around the ring.

Every example starts from a prefilled tree — on the LSM one whose
deeper levels hold runs of several tables, so a scan crosses table
boundaries inside a run from its first op; a run from an empty store
never leaves L0 within the drawn ops.

CI also runs this file under the derandomized ``ci`` hypothesis
profile (``tests/conftest.py``): ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btree.store import BTreeStore
from repro.kv.values import Value
from repro.lsm.memtable import SCAN_KEY_SPAN
from repro.lsm.store import LSMStore
from tests.lsm import test_scan_kernel
from tests.workload import test_batched_runner

TOP = SCAN_KEY_SPAN - 8
key = st.one_of(st.integers(0, 40), st.integers(0, 600),
                st.integers(TOP, SCAN_KEY_SPAN - 1))
keys = st.lists(key, min_size=1, max_size=16)
# The LSM plans batches of BULK_PROBE_MIN keys and up.
get_keys = st.lists(key, min_size=1, max_size=LSMStore.BULK_PROBE_MIN + 8)
vlen = st.sampled_from([24, 120, 700, 5000])
count = st.sampled_from([0, 1, 5, 40, 1 << 40])
ops = st.lists(st.one_of(
    st.tuples(st.just("put"), key, vlen),
    st.tuples(st.just("put_many"), keys, vlen),
    st.tuples(st.just("delete"), key),
    st.tuples(st.just("delete_many"), keys),
    st.tuples(st.just("get"), key),
    st.tuples(st.just("get_many"), get_keys),
    st.tuples(st.just("scan"), key, count),
    st.tuples(st.just("scan_many"), keys, count),
    st.tuples(st.just("flush")),
    st.tuples(st.just("crash")),
), min_size=1, max_size=60)


class Model:
    """A store as a dict: what it holds, what its counters read and
    what a crash may undo."""

    def __init__(self, store):
        self.store = store
        self.key_bytes = store.config.key_bytes
        self.live: dict[int, Value] = {}
        self.stats = replace(store.stats)  # a copy the model bumps
        #: The B+Tree's journal and write counts as first seen.
        self.journal0 = (getattr(store, "journal_bytes", 0),
                         getattr(store, "_journal_offset", 0),
                         self.stats.user_bytes_written,
                         self.stats.puts + self.stats.deletes)
        #: key -> every version (None: absent) it held before a write
        #: since the last sync, oldest first.
        self.unsynced: dict[int, list] = {}
        self.writes = 0  # value seeds: every put writes a new one

    # -- writes ---------------------------------------------------------
    def _write(self, key: int, value: Value | None) -> None:
        self.unsynced.setdefault(key, []).append(self.live.get(key))
        if value is None:
            self.live.pop(key, None)
            self.stats.deletes += 1
            self.stats.user_bytes_written += self.key_bytes
        else:
            self.live[key] = value
            self.stats.puts += 1
            self.stats.user_bytes_written += self.key_bytes + value.length

    def _seeds(self, n: int) -> list[int]:
        self.writes += n
        return list(range(self.writes - n, self.writes))

    def put(self, key, vlen):
        value = Value(self._seeds(1)[0], vlen)
        assert self.store.put(key, value) > 0.0
        self._write(key, value)

    def put_many(self, keys, vlen):
        seeds = self._seeds(len(keys))
        assert self.store.put_many(keys, seeds, vlen) == len(keys)
        for k, seed in zip(keys, seeds):
            self._write(k, Value(seed, vlen))

    def delete(self, key):
        assert self.store.delete(key) > 0.0
        self._write(key, None)

    def delete_many(self, keys):
        assert self.store.delete_many(keys) == len(keys)
        for k in keys:
            self._write(k, None)

    # -- reads ----------------------------------------------------------
    def _read(self, values, gets=0, scans=0) -> None:
        self.stats.gets += gets
        self.stats.scans += scans
        self.stats.user_bytes_read += sum(
            self.key_bytes + value.length for value in values)

    def _range(self, start, count) -> list:
        return sorted(item for item in self.live.items()
                      if item[0] >= start)[:max(count, 0)]

    def get(self, key):
        assert self.store.get(key)[1] == self.live.get(key)
        self._read([self.live[key]] if key in self.live else [], gets=1)

    def get_many(self, keys):
        assert self.store.get_many(keys) == len(keys)
        self._read([self.live[k] for k in keys if k in self.live],
                   gets=len(keys))

    def scan(self, start, count):
        pairs = self._range(start, count)
        assert self.store.scan(start, count)[1] == pairs
        self._read([value for _key, value in pairs], scans=1)

    def scan_many(self, starts, count):
        assert self.store.scan_many(starts, count) == len(starts)
        self._read([value for start in starts
                    for _key, value in self._range(start, count)],
                   scans=len(starts))

    # -- durability -----------------------------------------------------
    def flush(self):
        self.store.flush()
        self.unsynced.clear()

    def crash(self):
        _seconds, lost = self.store.crash_and_recover()
        assert lost <= set(self.unsynced)
        for k in lost:
            # The newest write is gone; what is left is a version the
            # key held before it.
            survivor = self.store.get(k)[1]
            assert survivor in self.unsynced[k], k
            self._read([] if survivor is None else [survivor], gets=1)
            if survivor is None:
                self.live.pop(k, None)
            else:
                self.live[k] = survivor
        self.unsynced.clear()  # recovery leaves everything it kept durable

    def check(self):
        store, stats = self.store, self.stats
        assert store.stats == stats
        if isinstance(store, BTreeStore):
            # Every write journals its payload behind a 32-byte header,
            # laid end to end around the ring.
            journal0, offset0, written0, writes0 = self.journal0
            journal = store.journal_bytes - journal0
            writes = stats.puts + stats.deletes - writes0
            assert journal == stats.user_bytes_written - written0 + 32 * writes
            assert store._journal_offset == \
                (offset0 + journal) % store.config.journal_ring_bytes


def prefilled(engine: str) -> Model:
    """A multi-level tree (the same one for every example) and its dict."""
    if engine == "lsm":
        # A WAL buffer a quarter of the memtable: a crash cuts the log
        # inside the active memtable's writes, not only between them.
        store = test_scan_kernel.make_store(wal_buffer_bytes=2048)
    else:
        store, _ssd = test_batched_runner.make_store(engine)
    store.enable_crash_tracking()
    model = Model(store)
    rng = np.random.default_rng(17)
    picks = rng.integers(0, 608, size=900).tolist()
    for i, pick in enumerate(picks):
        k = pick if pick < 600 else TOP + pick - 600
        if i % 11 == 10:
            model.delete(k)
        else:
            model.put(k, 40 + i % 5)
    if engine == "lsm":
        assert any(len(tables) >= 2 for tables in store.version.levels[1:])
    else:
        assert store._internal_count >= 1
    model.check()
    return model


@pytest.mark.parametrize("engine", ["lsm", "btree"])
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops)
def test_engine_matches_the_dict(engine, ops):
    model = prefilled(engine)
    for name, *args in ops:
        getattr(model, name)(*args)
        model.check()
    assert model.store.scan(0, 1 << 40)[1] == sorted(model.live.items())
    model.store.check_invariants()
