"""The open-loop fleet driver (DESIGN.md §10.2).

A :class:`FleetPool` replaces closed-loop clients with one *source*
task that emits operations on an :class:`~repro.fleet.arrival.
ArrivalProcess` timeline, routes each through the fleet's router, and
admits it into the owning shard's bounded FIFO queue; a per-shard
*service* task (spawned on the idle→busy transition, exiting when its
queue drains) executes admitted operations one at a time through the
per-op :func:`~repro.workload.plan.draw_op` / :func:`~repro.workload.
runner.apply_op` halves, whose draws the closed-loop drivers' planner
replicates, so the op stream for a given seed is identical — only the
*timing* of issue changes.

Overload is observable rather than fatal: when an arrival finds the
queue at ``queue_cap`` (counting the in-service op) it is *rejected*
and counted, so offered load, admitted load and goodput diverge
measurably past saturation instead of the queue growing without
bound.  Recorded per-op latency is the *response time* (completion −
arrival), which is the open-loop quantity SLO attainment is defined
over; queue depth seen by each arrival is accumulated per shard.

Determinism: the arrival timeline comes from the ``"arrival"`` RNG
substream, the op stream from the seed runner's ``workload-keys`` /
``workload-ops`` substreams, and all cross-task ordering flows through
the event heap's ``(time, seq)`` key — a run is a pure function of
(seed, spec, arrival config, fleet shape).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro import rng as rng_mod
from repro.core.metrics import ClientLatencies
from repro.counters import Counters
from repro.errors import NoSpaceError, TransientDeviceError
from repro.fleet.arrival import ArrivalProcess
from repro.fleet.sharded import ShardedStore
from repro.obs.tracer import NULL_TRACER
from repro.sim.scheduler import Scheduler
from repro.workload.keys import make_chooser
from repro.workload.plan import UPDATE, draw_op
from repro.workload.runner import (CHECK_EVERY, RunOutcome, _after_op_sample,
                                   apply_op, validate_sampling)
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
        ssd=None,
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
        self.ssd = ssd
        self.tracer = tracer
        self.nshards = len(store.shards)
        # Chaos knobs (DESIGN.md §11).  `chaos` gates every new branch
        # on the hot paths so a plain run is byte-identical to PR 7.
        self.kill_at = kill_at
        self.kill_shard = kill_shard
        self.retry_limit = retry_limit
        self.retry_backoff = retry_backoff
        self.op_timeout = op_timeout
        self._chaos = kill_at is not None or op_timeout is not None
        self._jitter_rng = rng_mod.substream(seed, "fleet-retry")

    def run(self) -> RunOutcome:
        """Drive source + service tasks to completion; blocking."""
        clock = self.store.clock
        scheduler = Scheduler(clock)
        scheduler.obs_tracer = self.tracer
        self._scheduler = scheduler
        # Open-loop runs are inherently concurrent (source + N service
        # tasks), so the event-driven engine mode and the per-channel
        # device model are always on — unlike the closed-loop pool,
        # whose one-client case stays on the seed's inline path.
        self.store.attach_scheduler(scheduler)
        if self.ssd is not None:
            self.ssd.enable_channel_timing()
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
        if self.kill_at is not None:
            scheduler.schedule(self.kill_at, self._kill, label="chaos-kill")
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
        spec = self.spec
        outcome = self._outcome
        rows = outcome.fleet
        qdepth_max = outcome.qdepth_max
        clock = self.store.clock
        router = self.store.router
        queues = self._queues
        busy = self._busy
        scheduler = self._scheduler
        arrival = self.arrival
        queue_cap = self.queue_cap
        max_ops = self.max_ops
        stop_when = self.stop_when
        key_rng = rng_mod.substream(self.seed, "workload-keys")
        op_rng = rng_mod.substream(self.seed, "workload-ops")
        chooser = make_chooser(spec.distribution, spec.nkeys, key_rng)
        chaos = self._chaos
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
            kind, key = draw_op(spec, chooser, op_rng)
            shard = router.shard_for(key)
            row = rows[shard]
            offered += 1
            row.offered += 1
            if chaos and outcome.health[shard] not in _SERVING:
                # Fail fast: no queueing behind a dead shard.  The
                # first arrival that notices the outage triggers the
                # recovery protocol; the op itself is retried with
                # backoff off the "fleet-retry" substream.
                if outcome.health[shard] == "down":
                    self._begin_recovery(shard)
                self._retry_or_fail(kind, key, shard, clock._step_now)
                continue
            depth = len(queues[shard]) + (1 if busy[shard] else 0)
            row.qdepth_sum += depth
            if depth > qdepth_max[shard]:
                qdepth_max[shard] = depth
            if depth >= queue_cap:
                row.rejected += 1
                continue
            version = 0
            if kind == UPDATE:
                # Versions advance per *admitted* update, fleet-global,
                # so value seeds stay unique and deterministic.
                version = self._version
                self._version += 1
            queues[shard].append((kind, key, version, clock._step_now))
            row.admitted += 1
            if not busy[shard]:
                busy[shard] = True
                scheduler.spawn(self._service(shard), label=f"shard{shard}")

    # ------------------------------------------------------------------
    # Per-shard service: FIFO, one op outstanding, exits when drained
    # ------------------------------------------------------------------
    def _service(self, shard: int):
        spec = self.spec
        outcome = self._outcome
        row = outcome.fleet[shard]
        store = self.store.shards[shard]  # already routed: go direct
        clock = store.clock
        queue = self._queues[shard]
        sink = outcome.latencies.sink(shard)
        tracer = self.tracer
        tr_on = tracer.enabled
        chaos = self._chaos
        timeout = self.op_timeout
        while queue:
            kind, key, version, t_arr = queue.popleft()
            if timeout is not None and clock._step_now - t_arr > timeout:
                # The op aged past its deadline while queued; the
                # client has given up, so don't burn service on it.
                row.timeouts += 1
                continue
            if tr_on:
                tracer.tid = shard
                tracer.shard = shard
            try:
                _version, _latency = apply_op(store, spec, kind, key, version)
            except NoSpaceError:
                outcome.out_of_space = True
                self._stop = True
                break
            except TransientDeviceError:
                # Engine-tier retries exhausted: the op fails without
                # killing the run (availability accounting picks it up).
                row.failed += 1
                continue
            # Service tasks run inside an event step; the capture-mode
            # step time is the op's completion time (see ClientPool).
            now = clock._step_now
            sink.append(now - t_arr)  # response = queueing + service
            row.completed += 1
            if chaos and outcome.health[shard] == "degraded":
                self._degraded_left[shard] -= 1
                if self._degraded_left[shard] <= 0:
                    outcome.health[shard] = "up"
            self._next_sample = _after_op_sample(
                clock, self._next_sample, self.sample_interval, self.on_sample
            )
            yield 0.0  # suspend until this op's completion time
        self._busy[shard] = False
        # Anchor the final op's completion on the timeline (step-local
        # time is discarded when a task returns).
        yield 0.0

    # ------------------------------------------------------------------
    # Chaos: shard kill, recovery protocol, retry with backoff + jitter
    # ------------------------------------------------------------------
    def _kill(self) -> None:
        """Crash the victim shard: drop its queue, mark it down.

        Fired from the event heap at ``kill_at`` virtual seconds after
        the run starts.  Queued ops are failed immediately (the shard's
        memory is gone); the op in service, if any, had already reached
        the device and completes.  Recovery is *lazy*: the outage is
        only noticed — and repair started — when traffic next routes to
        the shard, like a health check driven by real requests.
        """
        shard = self.kill_shard
        outcome = self._outcome
        if self._stop or outcome.health[shard] != "up":
            return
        outcome.health[shard] = "down"
        self._down_at[shard] = self.store.clock.now
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
        queues = self._queues
        busy = self._busy
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
            depth = len(queues[shard]) + (1 if busy[shard] else 0)
            if depth >= self.queue_cap:
                continue
            version = 0
            if kind == UPDATE:
                version = self._version
                self._version += 1
            queues[shard].append((kind, key, version, t_arr))
            row.admitted += 1
            if not busy[shard]:
                busy[shard] = True
                self._scheduler.spawn(
                    self._service(shard), label=f"shard{shard}"
                )
            return
        row.failed += 1
