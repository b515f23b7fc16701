"""Router determinism and distribution properties (DESIGN.md §10.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.fleet import HashRouter, RangeRouter, make_router
from repro.fleet.router import mix64

NKEYS = 10_000


def owners(router, keys) -> np.ndarray:
    """The shard of every key, through the per-key route the fleet uses."""
    return np.array([router.shard_for(int(k)) for k in keys])


class TestConstruction:
    def test_unknown_router_name(self):
        with pytest.raises(ConfigError, match="unknown router"):
            make_router("round-robin", 2, NKEYS)

    @pytest.mark.parametrize("cls", (HashRouter, RangeRouter))
    def test_bounds(self, cls):
        with pytest.raises(ConfigError):
            cls(0, NKEYS)
        with pytest.raises(ConfigError):
            cls(2, 0)


class TestDeterminism:
    """key -> shard is a pure function of (router, nshards, nkeys).

    The mapping must be pinned across runs and across processes: a
    resumed campaign or a re-run cell must route every key to the same
    shard, or its per-shard metrics would be incomparable.  Python's
    ``hash()`` is salted per process, which is why the hash router
    mixes with splitmix64 instead.
    """

    @pytest.mark.parametrize("name", ("hash", "range"))
    def test_same_mapping_across_instances(self, name):
        a = make_router(name, 4, NKEYS)
        b = make_router(name, 4, NKEYS)
        keys = np.arange(NKEYS)
        assert np.array_equal(owners(a, keys), owners(b, keys))

    def test_hash_mapping_pinned(self):
        # Golden values: any change to the mixing or the ring layout
        # is a breaking change for recorded campaigns and must be
        # deliberate.
        router = HashRouter(4, NKEYS)
        assert [router.shard_for(k) for k in range(0, NKEYS, 613)] == \
            [0, 2, 3, 3, 0, 3, 2, 1, 0, 2, 0, 1, 2, 2, 2, 2, 3]


class TestRangeRouter:
    def test_contiguous_and_monotone(self):
        router = RangeRouter(4, NKEYS)
        shards = owners(router, np.arange(NKEYS))
        assert shards[0] == 0
        assert shards[-1] == 3
        assert np.all(np.diff(shards) >= 0)  # key order = shard order
        counts = np.bincount(shards, minlength=4)
        assert counts.max() - counts.min() <= 1  # even split

    def test_stable_under_shard_doubling(self):
        """Doubling the shard count splits ranges, never reshuffles.

        Every shard at N shards maps onto exactly shards {2i, 2i+1} at
        2N — the property that makes range repartitioning a local
        operation.
        """
        base = RangeRouter(4, NKEYS)
        doubled = RangeRouter(8, NKEYS)
        keys = np.arange(NKEYS)
        assert np.array_equal(owners(doubled, keys) // 2,
                              owners(base, keys))

    def test_out_of_range_keys_clamp_to_last_shard(self):
        router = RangeRouter(4, NKEYS)
        assert router.shard_for(NKEYS) == 3
        assert router.shard_for(NKEYS * 10) == 3


class TestHashRouter:
    def test_uniform_within_tolerance(self):
        router = HashRouter(4, NKEYS)
        counts = np.bincount(owners(router, np.arange(NKEYS)), minlength=4)
        expected = NKEYS / 4
        # 64 vnodes/shard keeps the spread well inside +-25%.
        assert counts.min() > expected * 0.75
        assert counts.max() < expected * 1.25

    def test_single_shard_degenerates(self):
        router = HashRouter(1, NKEYS)
        assert np.all(owners(router, np.arange(1000)) == 0)

    def test_mostly_stable_under_shard_growth(self):
        """Consistent hashing: adding a shard moves only ~1/N of keys."""
        before = owners(HashRouter(4, NKEYS), np.arange(NKEYS))
        after = owners(HashRouter(5, NKEYS), np.arange(NKEYS))
        moved = np.count_nonzero(before != after)
        # Ideal is 1/5 of keys; allow generous slack for vnode variance.
        assert moved < NKEYS * 0.35

    @pytest.mark.parametrize("nshards,vnodes", ((4, 64), (3, 1)))
    def test_matches_numpy_searchsorted(self, nshards, vnodes, monkeypatch):
        """The bisect lookup places every key where a uint64
        ``np.searchsorted`` over an independently built ring does,
        hashes past the last ring point (the wrap-around) included."""
        points = sorted((mix64((shard << 20) | v), shard)
                        for shard in range(nshards) for v in range(vnodes))
        ring = np.array([p for p, _ in points], dtype=np.uint64)
        ring_owners = np.array([s for _, s in points])
        keys = np.arange(4 * NKEYS)
        hashes = np.array([mix64(int(k)) for k in keys], dtype=np.uint64)
        idx = np.searchsorted(ring, hashes, side="left")
        wrapped = idx == len(ring)
        assert wrapped.any()
        idx[wrapped] = 0
        monkeypatch.setattr(HashRouter, "VNODES", vnodes)
        router = HashRouter(nshards, NKEYS)
        assert np.array_equal(owners(router, keys), ring_owners[idx])
