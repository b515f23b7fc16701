"""The lone client against the reference driver: the DESIGN.md §6
contract.

A one-client :class:`~repro.fleet.pool.FleetPool` (vectorized RNG
windows + engine batch API) must be *bit-identical* to one user thread
issuing one KV call per operation (``reference_driver.py``, which
shares no code with it): same op stream, same virtual clock, same
SMART counters, same sample boundaries, for both engines and every
distribution.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.block.device import BlockDevice
from repro.btree.config import BTreeConfig
from repro.btree.store import BTreeStore
from repro.core.clock import VirtualClock
from repro.flash.ssd import SSD
from repro.fleet.pool import FleetPool
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.values import seeds_for, value_for, value_seed
from repro.lsm.config import LSMConfig
from repro.lsm.store import LSMStore
from repro.workload.keys import make_chooser
from repro.workload.runner import load_sequential
from repro.workload.spec import WorkloadSpec
from tests.conftest import LONE_ROUTER, make_tiny_config
from tests.workload import reference_driver


def make_store(engine: str, nblocks: int = 128, clock=None):
    """A tiny engine stack and its SSD, on *clock* or a fresh one."""
    clock = clock or VirtualClock()
    ssd = SSD(make_tiny_config(nblocks=nblocks), clock)
    fs = ExtentFilesystem(BlockDevice(ssd))
    if engine == "lsm":
        config = LSMConfig(memtable_bytes=8 * 1024,
                           max_bytes_for_level_base=16 * 1024,
                           target_file_bytes=8 * 1024)
        return LSMStore(fs, clock, config), ssd
    config = BTreeConfig(cache_bytes=64 * 1024, leaf_page_bytes=8 * 1024,
                         journal_ring_bytes=64 * 1024,
                         checkpoint_log_bytes=32 * 1024)
    return BTreeStore(fs, clock, config), ssd


def make_shards(engine: str, nshards: int, nblocks: int = 128):
    """*nshards* tiny engine stacks on one clock, with their SSDs."""
    clock = VirtualClock()
    stores, ssds = zip(*(make_store(engine, nblocks, clock)
                         for _ in range(nshards)))
    return clock, list(stores), list(ssds)


def state_fingerprint(store, ssd, ticks):
    state = {
        "clock": store.clock.now,
        "smart": ssd.smart.as_dict(),
        "stats": store.stats.as_dict(),
        "disk": store.disk_bytes_used,
        "ticks": list(ticks),
    }
    # Read last (it moves the clock): every live key with the value
    # version it ended on, which no counter above can see.
    state["contents"] = store.scan(0, 1 << 40)[1]
    return state


def drive(engine: str, spec: WorkloadSpec, reference: bool, *, seed=17,
          max_ops=1200, sample_interval=None, stop_when=None):
    """Load and run *spec* on a fresh store with the reference driver
    or the lone client."""
    store, ssd = make_store(engine)
    ticks: list[float] = []
    load_out = (reference_driver.load([store], LONE_ROUTER, spec) if reference
                else load_sequential([store], LONE_ROUTER, spec))
    assert load_out.ops_issued == spec.nkeys
    kwargs = {}
    if sample_interval is not None:
        kwargs = dict(sample_interval=sample_interval,
                      on_sample=lambda: ticks.append(store.clock.now))
    if stop_when is not None:
        kwargs["stop_when"] = stop_when(store)
    if reference:
        outcome = reference_driver.run([store], LONE_ROUTER, spec, seed=seed,
                                       max_ops=max_ops, **kwargs)
    else:
        outcome = FleetPool([store], LONE_ROUTER, spec, seed=seed,
                            max_ops=max_ops, per_client=False, **kwargs).run()
    return ((outcome.ops_issued, outcome.out_of_space),
            state_fingerprint(store, ssd, ticks))


ENGINES = ("lsm", "btree")


class TestChooserBatchContract:
    """batch(n) must consume the RNG exactly like n next_key() calls."""

    @pytest.mark.parametrize("name", ["uniform", "sequential", "zipfian", "hotspot"])
    def test_batch_equals_scalar_stream(self, name):
        a = make_chooser(name, 500, rng_mod.substream(3, "keys"))
        b = make_chooser(name, 500, rng_mod.substream(3, "keys"))
        scalar = [a.next_key() for _ in range(300)]
        batched = b.batch(300)
        assert scalar == batched.tolist()
        # Continuations stay aligned: mix scalar and batch draws.
        assert a.next_key() == b.next_key()
        assert a.batch(77).tolist() == [b.next_key() for _ in range(77)]

    @pytest.mark.parametrize("name", ["uniform", "sequential", "zipfian", "hotspot"])
    def test_chunking_invariance(self, name):
        a = make_chooser(name, 500, rng_mod.substream(4, "keys"))
        b = make_chooser(name, 500, rng_mod.substream(4, "keys"))
        whole = a.batch(256)
        parts = np.concatenate([b.batch(64) for _ in range(4)])
        assert whole.tolist() == parts.tolist()


def test_seeds_for_matches_value_for():
    keys = np.array([0, 1, 17, 2**40, 123456789], dtype=np.int64)
    versions = np.array([0, 1, 2, 3, 2**31], dtype=np.int64)
    seeds = seeds_for(keys, versions)
    for i in range(len(keys)):
        assert int(seeds[i]) == value_for(int(keys[i]), int(versions[i]), 64).seed
    # Scalar version broadcast (the load phase's version 0).
    assert seeds_for(keys, 0).tolist() == [
        value_for(int(k), 0, 64).seed for k in keys
    ]


@pytest.mark.parametrize("versions", [2**62 + 5, np.arange(2**62, 2**62 + 4)])
def test_seeds_for_wraps_silently(versions):
    """Keys near 2^63 and versions near 2^62 overflow both products and
    the sum: uint64 array arithmetic wraps mod 2^64 without a warning,
    to ``value_seed``'s masked Python-int arithmetic."""
    keys = np.array([2**63 - 1, 2**63 - 2, -(2**63), 2**62], dtype=np.int64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seeds = seeds_for(keys, versions)
    assert seeds.tolist() == [
        value_seed(key, version) for key, version in
        zip(keys.tolist(), np.broadcast_to(versions, len(keys)).tolist())]


class TestBatchedRunnerEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_update_only(self, engine):
        spec = WorkloadSpec(nkeys=150, value_bytes=120)
        reference = drive(engine, spec, reference=True)
        shipped = drive(engine, spec, reference=False)
        assert reference == shipped

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mixed_with_sampling(self, engine):
        spec = WorkloadSpec(nkeys=150, value_bytes=120, read_fraction=0.3,
                            scan_fraction=0.1, scan_length=7,
                            delete_fraction=0.1)
        reference = drive(engine, spec, reference=True, sample_interval=0.02)
        shipped = drive(engine, spec, reference=False, sample_interval=0.02)
        assert reference[1]["ticks"], "sampling must have fired for the test to bite"
        assert reference == shipped

    @pytest.mark.parametrize("distribution", ["zipfian", "hotspot", "sequential"])
    def test_distributions(self, distribution):
        spec = WorkloadSpec(nkeys=150, value_bytes=120, read_fraction=0.2,
                            distribution=distribution)
        reference = drive("lsm", spec, reference=True, sample_interval=0.05)
        shipped = drive("lsm", spec, reference=False, sample_interval=0.05)
        assert reference == shipped

    @pytest.mark.parametrize("engine", ENGINES)
    def test_stop_when_boundaries(self, engine):
        spec = WorkloadSpec(nkeys=150, value_bytes=120)

        def stopper(store):
            return lambda: store.clock.now > 0.05

        reference = drive(engine, spec, reference=True, max_ops=100_000,
                          stop_when=stopper)
        shipped = drive(engine, spec, reference=False, max_ops=100_000,
                        stop_when=stopper)
        assert reference == shipped
        assert shipped[0][0] % 64 == 0  # stopped at a CHECK_EVERY boundary

    @pytest.mark.parametrize("engine", ENGINES)
    def test_max_ops_not_window_aligned(self, engine):
        spec = WorkloadSpec(nkeys=150, value_bytes=120, read_fraction=0.25)
        reference = drive(engine, spec, reference=True, max_ops=333)
        shipped = drive(engine, spec, reference=False, max_ops=333)
        assert shipped[0] == (333, False)
        assert reference == shipped

    def test_out_of_space_equivalence(self):
        # A device too small for the workload: both drivers must stop
        # at the same op with the same partial accounting.
        spec = WorkloadSpec(nkeys=900, value_bytes=2000)
        results = []
        for reference in (True, False):
            store, ssd = make_store("lsm", nblocks=32)
            if reference:
                load = reference_driver.load([store], LONE_ROUTER, spec)
                outcome = reference_driver.run([store], LONE_ROUTER, spec,
                                               seed=9, max_ops=100_000)
            else:
                load = load_sequential([store], LONE_ROUTER, spec)
                outcome = FleetPool([store], LONE_ROUTER, spec, seed=9,
                                    max_ops=100_000, per_client=False).run()
            results.append((load.ops_issued, load.out_of_space,
                            outcome.ops_issued, outcome.out_of_space,
                            store.clock.now, ssd.smart.as_dict()))
        assert results[0] == results[1]
        assert results[0][1] or results[0][3], "expected to run out of space"


class TestBatchApiDirect:
    """The engine batch methods honour the KVStore contract directly."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_until_cuts_batches_after_crossing_op(self, engine):
        store, _ssd = make_store(engine)
        keys = np.arange(64, dtype=np.int64)
        seeds = seeds_for(keys, 1 + np.arange(64))
        until = store.clock.now + 1e-9  # crossed by the very first op
        done = store.put_many(keys, seeds, 100, until=until)
        assert done == 1
        done = store.put_many(keys[1:], seeds[1:], 100, until=None)
        assert done == 63

    def test_lsm_get_and_delete_many(self):
        spec = WorkloadSpec(nkeys=100, value_bytes=100)
        a, _ = make_store("lsm")
        b, _ = make_store("lsm")
        reference_driver.load([a], LONE_ROUTER, spec)
        load_sequential([b], LONE_ROUTER, spec)
        for key in range(50):
            a.get(key)
        for key in range(30):
            a.delete(key)
        assert b.get_many(np.arange(50, dtype=np.int64)) == 50
        assert b.delete_many(np.arange(30, dtype=np.int64)) == 30
        assert a.clock.now == b.clock.now
        assert a.stats.as_dict() == b.stats.as_dict()
