"""A router-fronted store over N independent shards (DESIGN.md §10.1).

:class:`ShardedStore` presents the :class:`~repro.kv.api.KVStore`
interface over a fleet of per-shard engine instances, each owning its
own SSD, filesystem and background work on the *shared* virtual clock.
Scalar ops route by key through the fleet's :class:`~repro.fleet.
router.Router`; the batch methods segment their inputs into maximal
consecutive same-shard runs and dispatch each run through the owning
shard's native batch path, preserving op order (and therefore clock
advancement, ``until`` semantics and ``ops_done`` accounting) exactly
as the inherited scalar loop would.  With one shard every call
delegates whole-batch to the only shard — which is what makes the
1-shard fleet path bit-identical to a bare store (pinned by tests).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import NoSpaceError
from repro.fleet.router import Router
from repro.kv.api import KVStore, as_int_list
from repro.kv.stats import KVStats
from repro.kv.values import Value


class ShardedStore(KVStore):
    """Routes every operation to the shard owning its key."""

    name = "sharded"

    def __init__(self, shards: Sequence[KVStore], router: Router, clock):
        self.shards = list(shards)
        self.router = router
        self.clock = clock

    # -- scalar ops (route by key) -------------------------------------
    def put(self, key: int, value: Value) -> float:
        return self.shards[self.router.shard_for(key)].put(key, value)

    def get(self, key: int):
        return self.shards[self.router.shard_for(key)].get(key)

    def delete(self, key: int) -> float:
        return self.shards[self.router.shard_for(key)].delete(key)

    def scan(self, start_key: int, count: int):
        # Scans are shard-local: they route by start key and return
        # that shard's key range only (a fleet-global merge would serve
        # no measurement purpose — the paper's scan cost model is
        # per-structure, and cross-shard fan-out would need its own
        # latency model to mean anything).
        return self.shards[self.router.shard_for(start_key)].scan(start_key, count)

    # -- batch ops (segment into consecutive same-shard runs) ----------
    def _run_batches(self, keys, dispatch, until, latencies):
        """Shared batch driver: same-shard segments, in input order."""
        keys = as_int_list(keys)
        n = len(keys)
        clock = self.clock
        shard_for = self.router.shard_for
        done = 0
        i = 0
        try:
            while i < n:
                shard = shard_for(keys[i])
                j = i + 1
                while j < n and shard_for(keys[j]) == shard:
                    j += 1
                took = dispatch(self.shards[shard], keys, i, j,
                                until, latencies)
                done += took
                if took < j - i:
                    break  # the shard call stopped at `until`
                if until is not None and clock.now >= until:
                    break
                i = j
        except NoSpaceError as exc:
            exc.ops_done = done + getattr(exc, "ops_done", 0)
            raise
        return done

    def put_many(self, keys, vseeds, vlen, until=None, latencies=None):
        vseeds = as_int_list(vseeds)

        def dispatch(shard, keys, i, j, until, latencies):
            return shard.put_many(keys[i:j], vseeds[i:j], vlen, until, latencies)

        return self._run_batches(keys, dispatch, until, latencies)

    def get_many(self, keys, until=None, latencies=None):
        def dispatch(shard, keys, i, j, until, latencies):
            return shard.get_many(keys[i:j], until, latencies)

        return self._run_batches(keys, dispatch, until, latencies)

    def delete_many(self, keys, until=None, latencies=None):
        def dispatch(shard, keys, i, j, until, latencies):
            return shard.delete_many(keys[i:j], until, latencies)

        return self._run_batches(keys, dispatch, until, latencies)

    def scan_many(self, start_keys, count, until=None, latencies=None):
        def dispatch(shard, keys, i, j, until, latencies):
            return shard.scan_many(keys[i:j], count, until, latencies)

        return self._run_batches(start_keys, dispatch, until, latencies)

    # -- lifecycle / accounting (fan out) ------------------------------
    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

    def attach_scheduler(self, scheduler) -> None:
        for shard in self.shards:
            shard.attach_scheduler(scheduler)

    def close(self) -> None:
        for shard in self.shards:
            shard.close()

    @property
    def stats(self) -> KVStats:
        return KVStats.total(shard.stats for shard in self.shards)

    @property
    def disk_bytes_used(self) -> int:
        return sum(shard.disk_bytes_used for shard in self.shards)
