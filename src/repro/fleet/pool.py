"""The measured-phase driver (DESIGN.md §4.3, §7.2, §10.2).

A :class:`FleetPool` drives every measured phase over a list of shard
engines on one clock, behind a :class:`~repro.fleet.router.Router`.
One constructor, one :meth:`~FleetPool.run` (scheduler, tracer, an
out-of-space raised by a killed shard's recovery), one stop gate
(``stop_when`` / ``max_ops``) and one sampler serve two sources of
traffic:

* **Closed clients** (no arrival process): *nclients* cooperative
  client tasks, each with one batch call outstanding.  A client plans
  ``CHECK_EVERY``-op windows through the shared
  :class:`~repro.workload.plan.BatchPlanner`, cuts them into same-kind
  runs, cuts those again at the end of each same-shard run
  (:meth:`~repro.fleet.router.Router.shard_run`) and issues each
  segment through the owning shard engine's batch API (``put_many`` &
  co.).  One client is the paper's single user thread (§3.2): a
  *lone* client has nothing else on the heap, so its ``until`` is the
  plain float sampling boundary.  Several clients get a live
  :class:`~repro.workload.plan.EventAwareUntil`: a batch call runs ops
  back to back only while no other event is due before the client's
  clock, so the event order is exactly that of one scheduler event per
  operation (``tests/workload/reference_driver.py``, held to this
  module at every client and shard count).  Client 0 draws from the
  ``workload-keys`` / ``workload-ops`` RNG substreams, client *i* > 0
  from ``client{i}-keys`` / ``client{i}-ops``.
* **Open arrivals**: one *source* task emits client 0's op stream on
  an :class:`~repro.fleet.arrival.ArrivalProcess` timeline, one op per
  arrival, routes each by key and admits it into the owning shard's
  bounded FIFO queue; one *server* task per shard executes admitted
  operations one at a time as one-op batch calls, parks with no event
  pending when its queue drains and is woken by the admission that
  finds its shard idle.  When an arrival finds the queue at
  ``queue_cap`` (counting the in-service op) it is *rejected* and
  counted, so offered load, admitted load and goodput diverge
  measurably past saturation.  Recorded latency is the
  *response time* (completion − arrival), the quantity SLO attainment
  is defined over.  Shard kill, retries and op timeouts are the
  service side's (DESIGN.md §11).

The op budget and ``stop_when`` count completed ops across all closed
clients, and offered ops at the open source; ``stop_when`` is asked
whenever that count crosses a :data:`~repro.workload.runner.
CHECK_EVERY` boundary (closed segments are cut there).  The sampler
fires when any completion crosses the boundary.  All cross-task
ordering flows through the event heap's ``(time, seq)`` key, so a run
is a pure function of (seed, spec, source, fleet shape);
``events_run`` and the ``sched`` spans are diagnostics, since batching
coalesces consecutive steps of one client.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import rng as rng_mod
from repro.core.metrics import ClientLatencies
from repro.counters import Counters
from repro.errors import ConfigError, NoSpaceError, TransientDeviceError
from repro.fleet.arrival import ArrivalProcess
from repro.fleet.router import Router
from repro.kv.api import KVStore
from repro.kv.values import value_seed
from repro.obs.tracer import NULL_TRACER
from repro.sim.scheduler import Scheduler, Task
from repro.workload.plan import (READ, SCAN, UPDATE, BatchPlanner,
                                 EventAwareUntil, update_seeds)
from repro.workload.runner import CHECK_EVERY, RunOutcome, validate_sampling
from repro.workload.spec import WorkloadSpec

#: Health states that accept new work; "recovering"/"down" fail fast.
_SERVING = ("up", "degraded")

#: SLO target the error budget is burned against (three nines).
AVAILABILITY_TARGET = 0.999


def _anchor() -> None:
    """A no-op event: puts a failed op's end on the global timeline."""


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


def open_loop_outcome(nshards: int) -> RunOutcome:
    """An open-loop outcome before its first arrival: one latency
    series, one zero :class:`FleetCounters` row, queue depth 0 and
    health "up" per shard."""
    return RunOutcome(
        latencies=ClientLatencies(nshards),
        fleet=[FleetCounters() for _ in range(nshards)],
        qdepth_max=[0] * nshards,
        health=["up"] * nshards,
    )


class FleetPool:
    """Closed clients or open arrivals over the shard engines."""

    def __init__(
        self,
        shards: Sequence[KVStore],
        router: Router,
        spec: WorkloadSpec,
        nclients: int = 1,
        arrival: ArrivalProcess | None = None,
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
        per_client: bool = True,
    ):
        if nclients < 1:
            raise ConfigError("nclients must be >= 1")
        validate_sampling(sample_interval, on_sample)
        self.shards = list(shards)
        self.router = router
        self.clock = self.shards[0].clock
        self.spec = spec
        self.nclients = nclients
        self.arrival = arrival
        self.seed = seed
        self.stop_when = stop_when
        self.sample_interval = sample_interval
        self.on_sample = on_sample
        self.max_ops = max_ops  # open loop: bounds *offered* ops
        self.queue_cap = queue_cap
        self.tracer = tracer
        # Chaos knobs (DESIGN.md §11).
        self.kill_at = kill_at
        self.kill_shard = kill_shard
        self.retry_limit = retry_limit
        self.retry_backoff = retry_backoff
        self.op_timeout = op_timeout
        self.per_client = per_client

    def run(self) -> RunOutcome:
        """Drive the source's tasks until stop, budget or out of space;
        blocking."""
        clock = self.clock
        scheduler = Scheduler(clock)
        scheduler.obs_tracer = self.tracer
        self._scheduler = scheduler
        n = len(self.shards)
        self._stop = False
        self._next_sample = (clock.now + self.sample_interval
                             if self.sample_interval else None)
        start = clock.now
        if self.arrival is None:
            outcome = RunOutcome()
            self._per_client_ops = [0] * self.nclients
            if self.per_client:
                outcome.per_client_ops = self._per_client_ops
                outcome.latencies = ClientLatencies(self.nclients)
            self._outcome = outcome
            for client_id in range(self.nclients):
                scheduler.spawn(self._client(client_id),
                                label=f"client{client_id}")
        else:
            outcome = self._outcome = open_loop_outcome(n)
            self._queues: list[deque] = [deque() for _ in range(n)]
            self._busy = [False] * n
            self._version = 1
            self._down_at = [0.0] * n
            self._degraded_left = [0] * n
            self._jitter_rng = rng_mod.substream(self.seed, "fleet-retry")
            self._servers = [Task(scheduler, self._service(shard),
                                  f"shard{shard}") for shard in range(n)]
            # No event of its own (see _kill): a kill the traffic never
            # reaches never happens, and never stretches the run.
            self._kill_time = (math.inf if self.kill_at is None
                               else start + self.kill_at)
            scheduler.spawn(self._source(), label="arrival-source")
        try:
            scheduler.run()
        except NoSpaceError:
            # Raised outside an op's own handler: a killed shard's
            # recovery flush (_begin_recovery, from the source or a
            # retry task).  The run ends and is reported, like an op's.
            outcome.out_of_space = True
            self._stop = True
        if outcome.fleet is not None:
            outcome.ops_issued = sum(row.completed for row in outcome.fleet)
        outcome.run_seconds = clock.now - start
        outcome.events_run = scheduler.events_run
        return outcome

    # ------------------------------------------------------------------
    # What every source shares: the stop gate and the sampler
    # ------------------------------------------------------------------
    def _proceed(self, count: int) -> bool:
        """Whether a source may issue its next op, *count* ops in (all
        closed clients' completions, or the open source's offers): no
        stop yet, the budget not spent, and ``stop_when`` false at a
        :data:`CHECK_EVERY` boundary."""
        if self._stop or (self.max_ops is not None and count >= self.max_ops):
            return False
        if count % CHECK_EVERY == 0 and self.stop_when():
            self._stop = True
            return False
        return True

    def _sample(self) -> None:
        """Fire ``on_sample`` at an op's completion past the boundary
        (the caller checks) and move the boundary on.  Batch calls return
        right after the crossing op (their ``until`` contract), so the
        callback observes the stores as that op left them."""
        now = self.clock.now
        self.on_sample()
        self._next_sample += self.sample_interval
        if self._next_sample <= now:
            # A stall carried the clock past several boundaries;
            # resynchronize instead of firing empty windows.
            self._next_sample = now + self.sample_interval

    # ------------------------------------------------------------------
    # The closed source: one client task (DESIGN.md §7.2)
    # ------------------------------------------------------------------
    #: Largest single batch-call segment of one of several clients (a
    #: lone client's is CHECK_EVERY).  Must divide CHECK_EVERY so
    #: segments still end exactly on the global stop_when boundaries;
    #: smaller segments keep the per-call key-list slices short in the
    #: interleave-heavy regime where `until` stops after an op or two.
    SEGMENT_CAP = 8

    def _client(self, client_id: int):
        spec = self.spec
        outcome = self._outcome
        shards = self.shards
        shard_run = self.router.shard_run
        clock = self.clock
        scheduler = self._scheduler
        heap = scheduler._heap
        per_client = self._per_client_ops
        sink = (None if outcome.latencies is None
                else outcome.latencies.sink(client_id))
        planner = BatchPlanner.for_client(spec, self.seed, client_id)
        # A lone client has the heap to itself (nothing else spawned),
        # so its bound is the plain sampling boundary and its segments
        # run whole windows: a float `until` and long runs keep the
        # engines' fast paths (the LSM's bulk get_many planning) in
        # play.
        lone = self.nclients == 1
        until = None if lone else EventAwareUntil(scheduler)
        put_many = [store.put_many for store in shards]
        get_many = [store.get_many for store in shards]
        scan_many = [store.scan_many for store in shards]
        delete_many = [store.delete_many for store in shards]
        check_every = CHECK_EVERY
        segment_cap = check_every if lone else self.SEGMENT_CAP
        vlen = spec.value_bytes
        scan_length = spec.scan_length
        max_ops = self.max_ops
        proceed = self._proceed
        tracer = self.tracer
        tr_on = tracer.enabled
        version = 1
        runs: list = []
        run_idx = 0
        cur_kind = 0
        cur_keys = None
        cur_seeds = None
        cur_len = 0
        offset = 0
        while True:
            issued = outcome.ops_issued
            if not proceed(issued):
                break
            if cur_keys is None:
                if run_idx >= len(runs):
                    runs = planner.plan(CHECK_EVERY)
                    run_idx = 0
                run = runs[run_idx]
                run_idx += 1
                cur_kind = run.kind
                # Engines take python lists without re-conversion, and
                # list slices are cheaper than numpy views for the
                # short segments queue-depth interleaving produces.
                cur_keys = run.keys.tolist()
                cur_len = len(cur_keys)
                cur_seeds = update_seeds(run.keys, version).tolist() \
                    if cur_kind == UPDATE else None
                offset = 0
            # Cut the segment at the next CHECK_EVERY boundary of the
            # *global* op count (where stop_when must be evaluated), at
            # the pool-wide op budget and at the end of the same-shard
            # run; `until` handles the sampling boundary and event
            # interleaving per op.
            cap = check_every - issued % check_every
            if cap > segment_cap:
                cap = segment_cap
            if max_ops is not None and max_ops - issued < cap:
                cap = max_ops - issued
            end = offset + cap
            if end > cur_len:
                end = cur_len
            shard, end = shard_run(cur_keys, offset, end)
            if lone:
                until = self._next_sample
            else:
                until.cap = self._next_sample
            if tr_on:
                # Ops this call issues belong to this client's track.
                tracer.tid = client_id
            try:
                # All-positional calls: the segment re-issue rate under
                # queue depth makes even keyword-argument binding show
                # up on the profile.
                if cur_kind == UPDATE:
                    took = put_many[shard](cur_keys[offset:end],
                                           cur_seeds[offset:end], vlen,
                                           until, sink)
                    version += took
                elif cur_kind == READ:
                    took = get_many[shard](cur_keys[offset:end], until, sink)
                elif cur_kind == SCAN:
                    took = scan_many[shard](cur_keys[offset:end], scan_length,
                                            until, sink)
                else:  # DELETE
                    took = delete_many[shard](cur_keys[offset:end], until,
                                              sink)
            except NoSpaceError as exc:
                done = getattr(exc, "ops_done", 0)
                outcome.ops_issued += done
                per_client[client_id] += done
                outcome.out_of_space = True
                self._stop = True
                break
            outcome.ops_issued += took
            per_client[client_id] += took
            offset += took
            if offset >= cur_len:
                cur_keys = None
            now = clock.now
            if self._next_sample is not None and now >= self._next_sample:
                self._sample()
            if heap and heap[0][0] <= now:  # the next event, inlined
                # Another task's event is due: suspend until this
                # operation's completion time, exactly where a
                # one-op-per-event client would have yielded.
                yield 0.0
        # Anchor the client's completion on the timeline: Scheduler.run
        # restores global time when a step ends, so end with one no-op
        # event at the last op's completion — the same final event a
        # one-op-per-event client's last resume-and-return produces.
        yield 0.0

    # ------------------------------------------------------------------
    # The open source: arrivals → route → admit/reject
    # ------------------------------------------------------------------
    def _source(self):
        outcome = self._outcome
        rows = outcome.fleet
        health = outcome.health
        qdepth_max = outcome.qdepth_max
        clock = self.clock
        shard_for = self.router.shard_for
        arrival = self.arrival
        queue_cap = self.queue_cap
        proceed = self._proceed
        ops = BatchPlanner.for_client(self.spec, self.seed).ops(CHECK_EVERY)
        offered = 0
        while proceed(offered):
            yield arrival.next_gap()  # suspend until the next arrival
            if self._stop:
                break
            if clock.now >= self._kill_time:
                self._kill()
            kind, key = next(ops)
            shard = shard_for(key)
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
                if self.retry_limit > 0:
                    retry = self._retry(kind, key, shard, clock.now)
                    self._scheduler.spawn(retry, label=f"retry{shard}")
                else:
                    row.failed += 1
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
        deterministic; an admission into an idle shard wakes its
        server.
        """
        queue = self._queues[shard]
        busy = self._busy[shard]
        depth = len(queue) + busy
        if depth < self.queue_cap:
            vseed = 0
            if kind == UPDATE:
                vseed = value_seed(key, self._version)
                self._version += 1
            queue.append((kind, key, vseed, t_arr))
            self._outcome.fleet[shard].admitted += 1
            if not busy:
                self._busy[shard] = True
                self._servers[shard].wake()
        return depth

    # ------------------------------------------------------------------
    # Per-shard server: FIFO, one op outstanding, parks when drained
    # ------------------------------------------------------------------
    def _service(self, shard: int):
        spec = self.spec
        vlen = spec.value_bytes
        scan_length = spec.scan_length
        outcome = self._outcome
        row = outcome.fleet[shard]
        health = outcome.health
        store = self.shards[shard]  # already routed: go direct
        clock = self.clock
        queue = self._queues[shard]
        sink = outcome.latencies.sink(shard)
        tracer = self.tracer
        tr_on = tracer.enabled
        timeout = self.op_timeout
        while True:
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
                    self._scheduler.schedule(0.0, _anchor)
                    break
                except TransientDeviceError:
                    # Engine-tier retries exhausted: the op fails without
                    # killing the run (availability accounting picks it up).
                    row.failed += 1
                    self._scheduler.schedule(0.0, _anchor)
                    continue
                # The server runs inside an event step, so the clock is
                # the op's completion time.
                now = clock.now
                sink.append(now - t_arr)  # response = queueing + service
                row.completed += 1
                if health[shard] == "degraded":
                    self._degraded_left[shard] -= 1
                    if self._degraded_left[shard] <= 0:
                        health[shard] = "up"
                if self._next_sample is not None and now >= self._next_sample:
                    self._sample()
                yield 0.0  # suspend until this op's completion time
                if clock.now >= self._kill_time:
                    self._kill()
            self._busy[shard] = False
            yield  # park: no event until an admission wakes the server

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
            self.tracer.instant("shard_down", "fault",
                                {"shard": shard, "dropped": dropped})

    def _begin_recovery(self, shard: int) -> None:
        """Start crash recovery; the shard serves again once it ends."""
        outcome = self._outcome
        outcome.health[shard] = "recovering"
        seconds, lost = self.shards[shard].crash_and_recover()
        outcome.fleet[shard].recovery_seconds += seconds
        outcome.fleet[shard].lost_keys += len(lost)
        self._scheduler.schedule(seconds, lambda: self._finish_recovery(shard),
                                 label=f"recover{shard}")

    def _finish_recovery(self, shard: int) -> None:
        """Recovery done: degraded until a queue's worth of completions."""
        outcome = self._outcome
        outcome.health[shard] = "degraded"
        self._degraded_left[shard] = self.queue_cap
        outcome.fleet[shard].downtime_seconds += (self.clock.now
                                                  - self._down_at[shard])
        if self.tracer.enabled:
            self.tracer.instant("shard_up", "fault", {"shard": shard})

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
                break  # never served: the stop ends its retries
            health = outcome.health[shard]
            if health == "down":
                self._begin_recovery(shard)
            elif (health in _SERVING
                  and self._admit(shard, kind, key, t_arr) < self.queue_cap):
                return
        row.failed += 1
