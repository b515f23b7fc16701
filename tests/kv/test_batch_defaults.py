"""The batch methods' shared contract (DESIGN.md §7.1), on every body
an engine runs them in.

``put_many`` / ``get_many`` / ``delete_many`` / ``scan_many`` must treat
``until``, ``ops_done`` and ``latencies`` *symmetrically* —

* the ``until`` bound is checked after each op (the crossing op is
  performed and counted, then the batch returns);
* a mid-batch :class:`NoSpaceError` carries the completed-op count in
  ``ops_done`` (the raising op is not counted);
* each completed op appends exactly one latency before the ``until``
  check, so a cut or aborted batch has appended exactly ``done`` ops.

Each case runs against every *subject* of its method: the two default
loops ``KVStore`` still has (``get_many``, ``delete_many``) on a
fixed-latency stub, and the LSM's and the B+Tree's own method on the
tiny device.  What a batch must do is read off a per-op dry run on an
identical twin — its latencies, its clock after each op, the device
requests each op issued — so no expectation is a constant of one
subject.  Out-of-space is armed by request count: the n-th device
request from now raises, which lands in the same op on both twins
because a batch issues the per-op calls' requests in their order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clock import VirtualClock
from repro.errors import NoSpaceError
from repro.kv.api import KVStore
from repro.kv.stats import KVStats
from repro.kv.values import Value
from repro.workload.runner import load_sequential
from repro.workload.spec import WorkloadSpec
from tests.workload.test_batched_runner import make_store

METHODS = ("put_many", "get_many", "delete_many", "scan_many")
#: Long enough for 24-byte tombstones to fill an 8 KiB memtable.
NOPS = 400
#: Loaded keys: three times the B+Tree's page cache, so reads fault.
NKEYS = 1200
VLEN = 120
SCAN_COUNT = 5
_RNG = np.random.default_rng(11)
KEYS = _RNG.integers(0, NKEYS + 50, size=NOPS).tolist()
SEEDS = _RNG.integers(0, 1 << 60, size=NOPS).tolist()


class StubStore(KVStore):
    """Fixed-latency store that can be armed to fail at the Nth op."""

    name = "stub"

    def __init__(self, op_latency: float = 1.0, fail_at: int | None = None):
        self.clock = VirtualClock()
        self.op_latency = op_latency
        self.fail_at = fail_at  # 0-based op index that raises
        self.ops = 0
        self._stats = KVStats()

    def _op(self) -> float:
        if self.fail_at is not None and self.ops == self.fail_at:
            raise NoSpaceError("stub device full")
        self.ops += 1
        self.clock.advance(self.op_latency)
        return self.op_latency

    def put(self, key, value):
        return self._op()

    def get(self, key):
        return self._op(), None

    def delete(self, key):
        return self._op()

    def scan(self, start_key, count):
        return self._op(), []

    def put_many(self, keys, vseeds, vlen, until=None, latencies=None):
        raise NotImplementedError("every engine has its own")

    def scan_many(self, start_keys, count, until=None, latencies=None):
        raise NotImplementedError("every engine has its own")

    def flush(self):
        pass

    def close(self):
        pass

    @property
    def stats(self):
        return self._stats

    @property
    def disk_bytes_used(self):
        return 0


class Subject:
    """One body of one batch method, behind what the cases need."""

    def __init__(self, kind: str, method: str):
        self.kind = kind  # "stub", "lsm" or "btree"
        self.method = method
        self.label = f"{kind}.{method}"
        self._dry = None  # dry_run()'s result: the same on every call

    def fresh(self):
        """An identical store on every call."""
        if self.kind == "stub":
            return StubStore()
        store, _ssd = make_store(self.kind)
        load_sequential(store, WorkloadSpec(nkeys=NKEYS, value_bytes=VLEN))
        store.requests = 0   # device requests so far
        store.fail_at = None  # the request that raises
        device = store.fs.device

        def counted(fn):
            def call(*args, **kwargs):
                if store.requests == store.fail_at:
                    raise NoSpaceError("armed by the test")
                store.requests += 1
                return fn(*args, **kwargs)
            return call

        for name in ("write_pages", "write_range", "read_range", "read_ranges"):
            setattr(device, name, counted(getattr(device, name)))
        return store

    def requests(self, store) -> int:
        return store.ops if self.kind == "stub" else store.requests

    def arm(self, store, nth: int) -> None:
        """The *nth* device request from now (0: the next) raises."""
        store.fail_at = self.requests(store) + nth

    def per_op(self, store, i: int) -> float:
        """Op *i* of the stream as one per-op call."""
        if self.method == "put_many":
            return store.put(KEYS[i], Value(SEEDS[i], VLEN))
        if self.method == "get_many":
            return store.get(KEYS[i])[0]
        if self.method == "delete_many":
            return store.delete(KEYS[i])
        return store.scan(KEYS[i], SCAN_COUNT)[0]

    def batch(self, store, first: int = 0, **kwargs) -> int:
        """Ops ``first..NOPS`` of the stream as one batch call."""
        keys = KEYS[first:]
        if self.method == "put_many":
            return store.put_many(keys, SEEDS[first:], VLEN, **kwargs)
        if self.method == "get_many":
            return store.get_many(keys, **kwargs)
        if self.method == "delete_many":
            return store.delete_many(keys, **kwargs)
        return store.scan_many(keys, SCAN_COUNT, **kwargs)

    def completed(self, store) -> int:
        """The store's own count of this method's ops since ``fresh``."""
        if self.kind == "stub":
            return store.ops
        stats = store.stats
        return {"put_many": stats.puts - NKEYS, "get_many": stats.gets,
                "delete_many": stats.deletes, "scan_many": stats.scans}[self.method]

    def dry_run(self):
        """The stream per op on a fresh twin: ``(latencies, clock,
        requests)`` with ``clock[i]`` / ``requests[i]`` read before op
        *i* (and after the last op at index ``NOPS``)."""
        if self._dry is None:
            store = self.fresh()
            latencies, clock, requests = [], [store.clock.now], [self.requests(store)]
            for i in range(NOPS):
                latencies.append(self.per_op(store, i))
                clock.append(store.clock.now)
                requests.append(self.requests(store))
            self._dry = latencies, clock, requests
        return self._dry

    def armed_at(self, earliest: int):
        """``(store, first, failing)``: a store on which op *failing*
        of ``batch(store, first)`` — the first op at or after stream
        index *earliest* that issues a device request — runs out of
        space.  ``earliest == 0`` makes it the batch's first op."""
        _latencies, _clock, requests = self.dry_run()
        op = next(i for i in range(earliest, NOPS)
                  if requests[i + 1] > requests[i])
        first = op if earliest == 0 else 0
        nth = requests[op] - requests[first]
        # The per-op loop on an armed twin agrees with the prediction.
        twin = self.fresh()
        for i in range(first):
            self.per_op(twin, i)
        self.arm(twin, nth)
        with pytest.raises(NoSpaceError):
            for i in range(first, NOPS):
                self.per_op(twin, i)
        assert i == op, self.label
        store = self.fresh()
        for i in range(first):
            self.per_op(store, i)
        self.arm(store, nth)
        return store, first, op - first


#: Every body a batch method runs in: the default loops on the stub,
#: each engine's own method (the B+Tree's ``delete_many`` *is* the
#: default loop, on a real device).
SUBJECTS = {
    method: [Subject(kind, method)
             for kind in (("stub", "lsm", "btree")
                          if method in ("get_many", "delete_many")
                          else ("lsm", "btree"))]
    for method in METHODS
}


class TestUntilBreakAfterOp:
    @pytest.mark.parametrize("method", METHODS)
    def test_crossing_op_is_performed_and_counted(self, method):
        for subject in SUBJECTS[method]:
            _latencies, clock, _requests = subject.dry_run()
            store = subject.fresh()
            # Boundary inside the third op: ops 1..3 run, 3 crosses.
            done = subject.batch(store, until=(clock[2] + clock[3]) / 2)
            assert done == 3, subject.label
            assert subject.completed(store) == 3, subject.label
            assert store.clock.now == clock[3], subject.label

    @pytest.mark.parametrize("method", METHODS)
    def test_boundary_already_crossed_still_does_one_op(self, method):
        for subject in SUBJECTS[method]:
            store = subject.fresh()
            done = subject.batch(store, until=store.clock.now)
            # Stop *after* the first op, never before.
            assert done == 1, subject.label
            assert subject.completed(store) == 1, subject.label

    @pytest.mark.parametrize("method", METHODS)
    def test_no_until_runs_everything(self, method):
        for subject in SUBJECTS[method]:
            _latencies, clock, _requests = subject.dry_run()
            store = subject.fresh()
            assert subject.batch(store) == NOPS, subject.label
            assert subject.completed(store) == NOPS, subject.label
            assert store.clock.now == clock[NOPS], subject.label


class TestOpsDonePartialAccounting:
    @pytest.mark.parametrize("method", METHODS)
    def test_no_space_carries_completed_count(self, method):
        for subject in SUBJECTS[method]:
            store, first, failing = subject.armed_at(earliest=5)
            assert failing >= 5, subject.label
            with pytest.raises(NoSpaceError) as exc_info:
                subject.batch(store, first)
            # The raising op did not complete.
            assert exc_info.value.ops_done == failing, subject.label

    @pytest.mark.parametrize("method", METHODS)
    def test_fail_on_first_op_reports_zero(self, method):
        for subject in SUBJECTS[method]:
            store, first, failing = subject.armed_at(earliest=0)
            assert failing == 0, subject.label
            with pytest.raises(NoSpaceError) as exc_info:
                subject.batch(store, first)
            assert exc_info.value.ops_done == 0, subject.label


class TestLatencySink:
    @pytest.mark.parametrize("method", METHODS)
    def test_one_latency_per_completed_op(self, method):
        for subject in SUBJECTS[method]:
            latencies, _clock, _requests = subject.dry_run()
            sink: list[float] = []
            assert subject.batch(subject.fresh(), latencies=sink) == NOPS
            assert sink == latencies, subject.label

    @pytest.mark.parametrize("method", METHODS)
    def test_until_cut_appends_exactly_done(self, method):
        for subject in SUBJECTS[method]:
            latencies, clock, _requests = subject.dry_run()
            sink: list[float] = []
            done = subject.batch(subject.fresh(), latencies=sink,
                                 until=(clock[1] + clock[2]) / 2)
            assert len(sink) == done == 2, subject.label
            assert sink == latencies[:2], subject.label

    @pytest.mark.parametrize("method", METHODS)
    def test_no_space_appends_exactly_done(self, method):
        for subject in SUBJECTS[method]:
            latencies, _clock, _requests = subject.dry_run()
            store, first, failing = subject.armed_at(earliest=3)
            sink: list[float] = []
            with pytest.raises(NoSpaceError) as exc_info:
                subject.batch(store, first, latencies=sink)
            assert len(sink) == exc_info.value.ops_done == failing
            assert sink == latencies[first:first + failing], subject.label
