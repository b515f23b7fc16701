"""The open-loop fleet driver (DESIGN.md §10.2).

A :class:`FleetPool` replaces closed-loop clients with one *source*
task that emits operations on an :class:`~repro.fleet.arrival.
ArrivalProcess` timeline, routes each through the fleet's router, and
admits it into the owning shard's bounded FIFO queue; a per-shard
*service* task (spawned on the idle→busy transition, exiting when its
queue drains) executes admitted operations one at a time, each as a
one-op call of the shard engine's batch API (``put_many`` & co.; the
:class:`~repro.kv.api.KVStore` batch contract makes that call
bit-identical to the per-op one).  The op stream is the closed-loop
pool's client 0's: the source draws it through the same
:class:`~repro.workload.plan.BatchPlanner`, a ``CHECK_EVERY`` window at
a time, and hands it out one op per arrival — so for a given seed only
the *timing* of issue differs.

Overload is observable rather than fatal: when an arrival finds the
queue at ``queue_cap`` (counting the in-service op) it is *rejected*
and counted, so offered load, admitted load and goodput diverge
measurably past saturation instead of the queue growing without
bound.  Recorded per-op latency is the *response time* (completion −
arrival), which is the open-loop quantity SLO attainment is defined
over; queue depth seen by each arrival is accumulated per shard.

Determinism: the arrival timeline comes from the ``"arrival"`` RNG
substream, the op stream from closed-loop client 0's ``workload-keys``
/ ``workload-ops`` substreams, and all cross-task ordering flows through
the event heap's ``(time, seq)`` key — a run is a pure function of
(seed, spec, arrival config, fleet shape).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro import rng as rng_mod
from repro.core.metrics import ClientLatencies
from repro.counters import Counters
from repro.errors import NoSpaceError, TransientDeviceError
from repro.fleet.arrival import ArrivalProcess
from repro.fleet.sharded import ShardedStore
from repro.kv.values import value_for
from repro.obs.tracer import NULL_TRACER
from repro.sim.scheduler import Scheduler
from repro.workload.plan import READ, SCAN, UPDATE, BatchPlanner
from repro.workload.runner import (CHECK_EVERY, RunOutcome, _after_op_sample,
                                   validate_sampling)
from repro.workload.spec import WorkloadSpec

#: Health states that accept new work; "recovering"/"down" fail fast.
_SERVING = ("up", "degraded")

#: SLO target the error budget is burned against (three nines).
AVAILABILITY_TARGET = 0.999


@dataclass(slots=True)
class FleetCounters(Counters):
    """One shard's open-loop accounting; a fleet total is the sum over
    the shards' blocks (the partition of ``offered`` they obey is
    stated on :class:`~repro.workload.runner.RunOutcome`)."""

    layer = "fleet"

    offered: int = 0  # arrivals routed to this shard
    admitted: int = 0
    rejected: int = 0  # arrivals that found the queue at its cap
    completed: int = 0
    qdepth_sum: int = 0  # queue depth seen by each arrival, summed
    # Chaos accounting (DESIGN.md §11): all zero unless a kill
    # schedule, op timeout or fault plan is active.
    failed: int = 0  # ops lost to a down shard or a device error
    timeouts: int = 0  # queued ops that aged past the op timeout
    retries: int = 0  # re-attempts after fail-fast on a down shard
    lost_keys: int = 0  # newest-version keys lost in crash recovery
    recovery_seconds: float = 0.0
    downtime_seconds: float = 0.0


class FleetPool:
    """Open-loop traffic source + per-shard service tasks."""

    def __init__(
        self,
        store: ShardedStore,
        spec: WorkloadSpec,
        arrival: ArrivalProcess,
        seed: int = rng_mod.DEFAULT_SEED,
        stop_when: Callable[[], bool] = lambda: False,
        sample_interval: float | None = None,
        on_sample: Callable[[], None] | None = None,
        max_ops: int | None = None,
        queue_cap: int = 64,
        tracer=NULL_TRACER,
        kill_at: float | None = None,
        kill_shard: int = 0,
        retry_limit: int = 3,
        retry_backoff: float = 0.0005,
        op_timeout: float | None = None,
    ):
        validate_sampling(sample_interval, on_sample)
        self.store = store
        self.spec = spec
        self.arrival = arrival
        self.seed = seed
        self.stop_when = stop_when
        self.sample_interval = sample_interval
        self.on_sample = on_sample
        self.max_ops = max_ops  # bounds *offered* ops, so overload runs end
        self.queue_cap = queue_cap
        self.tracer = tracer
        self.nshards = len(store.shards)
        # Chaos knobs (DESIGN.md §11).
        self.kill_at = kill_at
        self.kill_shard = kill_shard
        self.retry_limit = retry_limit
        self.retry_backoff = retry_backoff
        self.op_timeout = op_timeout
        self._jitter_rng = rng_mod.substream(seed, "fleet-retry")

    def run(self) -> RunOutcome:
        """Drive source + service tasks to completion; blocking."""
        clock = self.store.clock
        scheduler = Scheduler(clock)
        scheduler.obs_tracer = self.tracer
        self._scheduler = scheduler
        # Open-loop runs are inherently concurrent (source + N service
        # tasks), so the event-driven engine mode is always on — unlike
        # the closed-loop pool, whose lone client keeps background
        # work inline.
        self.store.attach_scheduler(scheduler)
        n = self.nshards
        outcome = RunOutcome(
            latencies=ClientLatencies(n),
            fleet=[FleetCounters() for _ in range(n)],
            qdepth_max=[0] * n,
            health=["up"] * n,
        )
        self._outcome = outcome
        self._stop = False
        self._queues: list[deque] = [deque() for _ in range(n)]
        self._busy = [False] * n
        self._version = 1
        self._next_sample = (
            clock.now + self.sample_interval if self.sample_interval else None
        )
        start = clock.now
        self._down_at = [0.0] * n
        self._degraded_left = [0] * n
        # No event of its own (see _kill): a kill the traffic never
        # reaches never happens, and never stretches the run.
        self._kill_time = (math.inf if self.kill_at is None
                           else start + self.kill_at)
        scheduler.spawn(self._source(), label="arrival-source")
        try:
            scheduler.run()
        except NoSpaceError:
            # Raised from a scheduled background event (flush,
            # compaction, checkpoint); the run ends and is reported.
            outcome.out_of_space = True
            self._stop = True
        outcome.ops_issued = sum(row.completed for row in outcome.fleet)
        outcome.run_seconds = clock.now - start
        outcome.events_run = scheduler.events_run
        return outcome

    # ------------------------------------------------------------------
    # The traffic source: arrivals → route → admit/reject
    # ------------------------------------------------------------------
    def _source(self):
        outcome = self._outcome
        rows = outcome.fleet
        health = outcome.health
        qdepth_max = outcome.qdepth_max
        clock = self.store.clock
        router = self.store.router
        arrival = self.arrival
        queue_cap = self.queue_cap
        max_ops = self.max_ops
        stop_when = self.stop_when
        ops = BatchPlanner.for_client(self.spec, self.seed).ops(CHECK_EVERY)
        offered = 0
        while True:
            if self._stop:
                break
            if max_ops is not None and offered >= max_ops:
                break
            if offered % CHECK_EVERY == 0 and stop_when():
                self._stop = True
                break
            yield arrival.next_gap()  # suspend until the next arrival
            if self._stop:
                break
            if clock.now >= self._kill_time:
                self._kill()
            kind, key = next(ops)
            shard = router.shard_for(key)
            row = rows[shard]
            offered += 1
            row.offered += 1
            if health[shard] not in _SERVING:
                # Fail fast: no queueing behind a dead shard.  The
                # first arrival that notices the outage triggers the
                # recovery protocol; the op itself is retried with
                # backoff off the "fleet-retry" substream.
                if health[shard] == "down":
                    self._begin_recovery(shard)
                self._retry_or_fail(kind, key, shard, clock.now)
                continue
            depth = self._admit(shard, kind, key, clock.now)
            row.qdepth_sum += depth
            if depth > qdepth_max[shard]:
                qdepth_max[shard] = depth
            if depth >= queue_cap:
                row.rejected += 1

    def _admit(self, shard: int, kind: int, key: int, t_arr: float) -> int:
        """Queue an op at *shard* unless the queue is full; returns the
        depth the op found (queued ops plus the one in service).

        At ``queue_cap`` the op is not admitted.  Versions advance per
        *admitted* update, fleet-global, so value seeds stay unique and
        deterministic; an admission into an idle shard spawns its
        service task.
        """
        queue = self._queues[shard]
        busy = self._busy[shard]
        depth = len(queue) + busy
        if depth < self.queue_cap:
            vseed = 0
            if kind == UPDATE:
                vseed = value_for(key, self._version,
                                  self.spec.value_bytes).seed
                self._version += 1
            queue.append((kind, key, vseed, t_arr))
            self._outcome.fleet[shard].admitted += 1
            if not busy:
                self._busy[shard] = True
                self._scheduler.spawn(self._service(shard),
                                      label=f"shard{shard}")
        return depth

    # ------------------------------------------------------------------
    # Per-shard service: FIFO, one op outstanding, exits when drained
    # ------------------------------------------------------------------
    def _service(self, shard: int):
        spec = self.spec
        vlen = spec.value_bytes
        scan_length = spec.scan_length
        outcome = self._outcome
        row = outcome.fleet[shard]
        health = outcome.health
        store = self.store.shards[shard]  # already routed: go direct
        clock = store.clock
        queue = self._queues[shard]
        sink = outcome.latencies.sink(shard)
        tracer = self.tracer
        tr_on = tracer.enabled
        timeout = self.op_timeout
        while queue:
            kind, key, vseed, t_arr = queue.popleft()
            if timeout is not None and clock.now - t_arr > timeout:
                # The op aged past its deadline while queued; the
                # client has given up, so don't burn service on it.
                row.timeouts += 1
                continue
            if tr_on:
                tracer.tid = shard
                tracer.shard = shard
            try:
                # One-op batch calls, timed by the response time below.
                if kind == UPDATE:
                    store.put_many([key], [vseed], vlen)
                elif kind == READ:
                    store.get_many([key])
                elif kind == SCAN:
                    store.scan_many([key], scan_length)
                else:  # DELETE
                    store.delete_many([key])
            except NoSpaceError:
                outcome.out_of_space = True
                self._stop = True
                break
            except TransientDeviceError:
                # Engine-tier retries exhausted: the op fails without
                # killing the run (availability accounting picks it up).
                row.failed += 1
                continue
            # Service tasks run inside an event step, so the clock is
            # the op's completion time (see ClientPool).
            now = clock.now
            sink.append(now - t_arr)  # response = queueing + service
            row.completed += 1
            if health[shard] == "degraded":
                self._degraded_left[shard] -= 1
                if self._degraded_left[shard] <= 0:
                    health[shard] = "up"
            self._next_sample = _after_op_sample(
                clock, self._next_sample, self.sample_interval, self.on_sample
            )
            yield 0.0  # suspend until this op's completion time
            if clock.now >= self._kill_time:
                self._kill()
        self._busy[shard] = False
        # Anchor the final op's completion on the timeline
        # (Scheduler.run restores global time when a step ends).
        yield 0.0

    # ------------------------------------------------------------------
    # Chaos: shard kill, recovery protocol, retry with backoff + jitter
    # ------------------------------------------------------------------
    def _kill(self) -> None:
        """Crash the victim shard: drop its queue, mark it down.

        Dated ``kill_at`` seconds into the run and carried out by the
        first source or service step at or after then, before anything
        else it does: only those steps touch queues and health.  Queued
        ops fail (the shard's memory is gone); the op in service had
        reached the device and completes.  Recovery is *lazy*: it starts
        when traffic next routes to the shard, like a health check
        driven by real requests.
        """
        shard = self.kill_shard
        outcome = self._outcome
        killed_at, self._kill_time = self._kill_time, math.inf
        if self._stop:
            return
        outcome.health[shard] = "down"
        self._down_at[shard] = killed_at
        queue = self._queues[shard]
        dropped = len(queue)
        outcome.fleet[shard].failed += dropped
        queue.clear()
        if self.tracer.enabled:
            self.tracer.instant(
                "shard_down", "fault",
                {"shard": shard, "dropped": dropped},
            )

    def _begin_recovery(self, shard: int) -> None:
        """Start crash recovery; the shard serves again once it ends."""
        outcome = self._outcome
        outcome.health[shard] = "recovering"
        seconds, lost = self.store.shards[shard].crash_and_recover()
        outcome.fleet[shard].recovery_seconds += seconds
        outcome.fleet[shard].lost_keys += len(lost)
        self._scheduler.schedule(
            seconds, lambda: self._finish_recovery(shard),
            label=f"recover{shard}",
        )

    def _finish_recovery(self, shard: int) -> None:
        """Recovery done: degraded until a queue's worth of completions."""
        outcome = self._outcome
        outcome.health[shard] = "degraded"
        self._degraded_left[shard] = self.queue_cap
        outcome.fleet[shard].downtime_seconds += (
            self.store.clock.now - self._down_at[shard]
        )
        if self.tracer.enabled:
            self.tracer.instant("shard_up", "fault", {"shard": shard})

    def _retry_or_fail(self, kind, key: int, shard: int, t_arr: float) -> None:
        """Queue a failed-fast op for retry, or fail it outright."""
        if self.retry_limit > 0:
            self._scheduler.spawn(
                self._retry(kind, key, shard, t_arr), label=f"retry{shard}"
            )
        else:
            self._outcome.fleet[shard].failed += 1

    def _retry(self, kind, key: int, shard: int, t_arr: float):
        """Re-attempt admission with exponential backoff + jitter.

        Each attempt sleeps ``retry_backoff * 2**attempt`` scaled by a
        uniform [1, 2) jitter factor from the ``"fleet-retry"``
        substream (decorrelates retry storms deterministically), then
        re-checks the shard.  Response time for a retried op spans from
        its *first* arrival, so backoff shows up in the tail — exactly
        the SLO-relevant quantity.
        """
        outcome = self._outcome
        row = outcome.fleet[shard]
        rng = self._jitter_rng
        for attempt in range(self.retry_limit):
            row.retries += 1
            backoff = self.retry_backoff * (2.0 ** attempt)
            backoff *= 1.0 + rng.random()
            yield backoff
            if self._stop:
                return
            health = outcome.health[shard]
            if health == "down":
                self._begin_recovery(shard)
                continue
            if health not in _SERVING:
                continue
            if self._admit(shard, kind, key, t_arr) < self.queue_cap:
                return
        row.failed += 1
