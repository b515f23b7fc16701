"""Key→shard routing for a fleet of store shards (DESIGN.md §10.1).

Two routing disciplines, both pure functions of (key, configuration)
so a fleet run is deterministic and key placement is pinnable in
tests:

* :class:`HashRouter` — consistent hashing over a ring of virtual
  nodes.  Keys and vnode points are mixed with a splitmix64 finalizer
  (never Python's ``hash``, whose string salting would break
  cross-process determinism); each shard contributes ``VNODES``
  points, so load is uniform within tolerance and growing the fleet
  by one shard only remaps the ~1/(n+1) of keys that land on the new
  shard's points.
* :class:`RangeRouter` — contiguous key ranges: shard =
  ``key * nshards // nkeys``.  Monotone in the key, so sequential
  loads stay sequential per shard, and doubling the shard count
  splits every shard exactly in two (nested ranges).
"""

from __future__ import annotations

from bisect import bisect_left

from repro.errors import ConfigError

_MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finalizer: a deterministic 64-bit mixing function."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Router:
    """Maps every key of a fixed keyspace to one of *nshards* shards."""

    name = "abstract"

    def __init__(self, nshards: int, nkeys: int):
        if nshards < 1:
            raise ConfigError("nshards must be >= 1")
        if nkeys < 1:
            raise ConfigError("nkeys must be >= 1")
        self.nshards = nshards
        self.nkeys = nkeys

    def shard_for(self, key: int) -> int:
        """The shard owning *key*."""
        raise NotImplementedError

    def shard_run(self, keys: list[int], lo: int, hi: int) -> tuple[int, int]:
        """The shard owning ``keys[lo]`` and the end of its run: the
        largest ``end <= hi`` with ``keys[lo:end]`` all on that shard.
        One shard owns every run whole, with no per-key call."""
        if self.nshards == 1:
            return 0, hi
        shard_for = self.shard_for
        shard = shard_for(keys[lo])
        end = lo + 1
        while end < hi and shard_for(keys[end]) == shard:
            end += 1
        return shard, end


class HashRouter(Router):
    """Consistent hashing over a ring of per-shard virtual nodes."""

    name = "hash"

    #: Ring points per shard.  Enough that per-shard load is within a
    #: few percent of uniform at small fleet sizes, small enough that
    #: the ring fits in cache.
    VNODES = 64

    def __init__(self, nshards: int, nkeys: int):
        super().__init__(nshards, nkeys)
        points = []
        for shard in range(nshards):
            for v in range(self.VNODES):
                # One mix per (shard, vnode) pair; the pair is packed so
                # a shard's points are identical regardless of fleet
                # size — the consistency property.
                points.append((mix64((shard << 20) | v), shard))
        points.sort()
        # Int lists: a bisect costs a quarter of a numpy scalar search.
        self._ring = [p for p, _ in points]
        self._owners = [s for _, s in points]

    def shard_for(self, key: int) -> int:
        idx = bisect_left(self._ring, mix64(key))
        if idx == len(self._ring):  # wrap past the last point
            idx = 0
        return self._owners[idx]


class RangeRouter(Router):
    """Contiguous, equal-width key ranges: shard = key·nshards // nkeys."""

    name = "range"

    def shard_for(self, key: int) -> int:
        if key >= self.nkeys:  # defensive clamp; keys are drawn < nkeys
            return self.nshards - 1
        return key * self.nshards // self.nkeys


ROUTERS = {
    HashRouter.name: HashRouter,
    RangeRouter.name: RangeRouter,
}


def make_router(name: str, nshards: int, nkeys: int) -> Router:
    """Construct a router by name; an unknown name fails fast."""
    try:
        cls = ROUTERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown router {name!r}; expected one of {sorted(ROUTERS)}"
        ) from None
    return cls(nshards, nkeys)
