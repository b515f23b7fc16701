"""The closed-loop workload driver (DESIGN.md §4.4, §7).

A :class:`ClientPool` runs *nclients* closed-loop clients against one
shared store on the discrete-event scheduler.  Each client is a
cooperative task: it issues operations (each advancing the clock by its
latency), suspends until the last operation's completion time whenever
another task's event is due, then resumes — so at any instant up to
*nclients* operations are outstanding and the device's per-channel
queues see a real queue depth.

One client is the paper's single user thread (§3.2), and the pool is
the only closed-loop driver: a *lone* client runs with no scheduler
attached to the engine (background work stays inline) and nothing else
on the heap, so it issues whole ``CHECK_EVERY`` windows bounded only by
the next sampling boundary, a plain float ``until``.

Each client is *batched* (DESIGN.md §7): it plans windows of
operations through the shared :class:`~repro.workload.plan.
BatchPlanner` and issues same-kind runs through the store's batch API.
With more than one client, ``until`` is event-scheduler-aware
(:class:`~repro.workload.plan.EventAwareUntil`): a batch call executes
operations back to back inside one event step only while no other
event is pending before the client's clock — the moment an operation's
completion reaches another task's event time (or an operation
schedules background work), the batch returns, the client yields, and
the event order proceeds exactly as if every operation had been its
own scheduler event.  That one-op-per-event pool is
``tests/workload/reference_driver.py``; the tests hold this module to
it at every client count.

Reproducibility rules:

* client 0 draws from the ``workload-keys`` / ``workload-ops`` RNG
  substreams (the open-loop fleet's source draws from them too);
* client *i* > 0 draws from ``client{i}-keys`` / ``client{i}-ops``
  substreams — statistically independent, deterministic per seed;
* all cross-client ordering flows through the event heap's ``(time,
  seq)`` key, so a run is a pure function of (seed, spec, nclients);
* the pool performs the same operations at the same virtual times as
  a one-op-per-event pool — only the number of scheduler events
  differs (batching coalesces consecutive steps of one client), which
  is why ``events_run`` and the ``sched`` spans are diagnostics, not
  part of the equivalence contract.

Per-operation latencies are recorded as the operation's user-visible
latency (the value the per-op KV call returns and the batch methods
append to their ``latencies`` sink), unless ``per_client=False``, in
which case the outcome carries neither ``per_client_ops`` nor
latencies.

``stop_when`` / ``max_ops`` / sampling are pool-global: the sampling
callback fires when *any* client's completion crosses the boundary,
the op budget counts operations across all clients, and ``stop_when``
is evaluated whenever the global op count crosses a :data:`~repro.
workload.runner.CHECK_EVERY` boundary (batch segments are cut at those
boundaries so the check lands on the same op counts as with one op
per event).
"""

from __future__ import annotations

from typing import Callable

from repro import rng as rng_mod
from repro.core.metrics import ClientLatencies
from repro.errors import ConfigError, NoSpaceError
from repro.kv.api import KVStore
from repro.obs.tracer import NULL_TRACER
from repro.sim.scheduler import Scheduler
from repro.workload.plan import (
    READ, SCAN, UPDATE, BatchPlanner, EventAwareUntil, update_seeds,
)
from repro.workload.runner import (CHECK_EVERY, RunOutcome, _after_op_sample,
                                   validate_sampling)
from repro.workload.spec import WorkloadSpec


class ClientPool:
    """N concurrent closed-loop clients sharing one store."""

    def __init__(
        self,
        store: KVStore,
        spec: WorkloadSpec,
        nclients: int,
        seed: int = rng_mod.DEFAULT_SEED,
        stop_when: Callable[[], bool] = lambda: False,
        sample_interval: float | None = None,
        on_sample: Callable[[], None] | None = None,
        max_ops: int | None = None,
        tracer=NULL_TRACER,
        per_client: bool = True,
    ):
        if nclients < 1:
            raise ConfigError("nclients must be >= 1")
        validate_sampling(sample_interval, on_sample)
        self.store = store
        self.spec = spec
        self.nclients = nclients
        self.seed = seed
        self.stop_when = stop_when
        self.sample_interval = sample_interval
        self.on_sample = on_sample
        self.max_ops = max_ops
        self.tracer = tracer
        self.per_client = per_client

    def run(self) -> RunOutcome:
        """Drive all clients until stop/budget/out-of-space; blocking."""
        clock = self.store.clock
        scheduler = Scheduler(clock)
        scheduler.obs_tracer = self.tracer
        self._scheduler = scheduler
        if self.nclients > 1:
            # A lone client keeps background work inline; concurrency
            # turns on the event-driven engine mode.
            self.store.attach_scheduler(scheduler)
        self._per_client_ops = [0] * self.nclients
        outcome = RunOutcome()
        if self.per_client:
            outcome.per_client_ops = self._per_client_ops
            outcome.latencies = ClientLatencies(self.nclients)
        self._stop = False
        self._outcome = outcome
        self._next_sample = (
            clock.now + self.sample_interval if self.sample_interval else None
        )
        start = clock.now
        for client_id in range(self.nclients):
            scheduler.spawn(self._client(client_id), label=f"client{client_id}")
        try:
            scheduler.run()
        except NoSpaceError:
            # Raised from a *scheduled* event (LSM flush/compaction,
            # B+Tree checkpoint) rather than a client's own operation;
            # the run ends and is reported, like a client's own.
            outcome.out_of_space = True
            self._stop = True
        outcome.run_seconds = clock.now - start
        outcome.events_run = scheduler.events_run
        return outcome

    # ------------------------------------------------------------------
    # The client task (DESIGN.md §7)
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
        store = self.store
        clock = store.clock
        scheduler = self._scheduler
        heap = scheduler._heap
        per_client = self._per_client_ops
        sink = (None if outcome.latencies is None
                else outcome.latencies.sink(client_id))
        planner = BatchPlanner.for_client(spec, self.seed, client_id)
        # A lone client has the heap to itself (no scheduler attached
        # to the engine, nothing else spawned), so its bound is the
        # plain sampling boundary and its segments run whole windows:
        # a float `until` and long runs keep the engines' fast paths
        # (the LSM's bulk get_many planning) in play.
        lone = self.nclients == 1
        until = None if lone else EventAwareUntil(scheduler)
        put_many = store.put_many
        get_many = store.get_many
        scan_many = store.scan_many
        delete_many = store.delete_many
        check_every = CHECK_EVERY
        segment_cap = check_every if lone else self.SEGMENT_CAP
        vlen = spec.value_bytes
        scan_length = spec.scan_length
        max_ops = self.max_ops
        stop_when = self.stop_when
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
        # Adaptive segment size (DESIGN.md §8): while interleave-bound
        # (we just yielded because another event was due) the next call
        # will be stopped after one op anyway, so the next call is a
        # 1-op segment (the same batch method, prologue and all: the
        # engines have no single-op path); the moment a call ends with
        # no event due, the full segment size returns.  Only the call
        # granularity changes — the op stream and timing are governed
        # by `until` either way.
        seg = segment_cap
        while True:
            if self._stop:
                break
            issued = outcome.ops_issued
            if max_ops is not None and issued >= max_ops:
                break
            if issued % check_every == 0 and stop_when():
                self._stop = True
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
            # *global* op count (where stop_when must be evaluated) and
            # at the pool-wide op budget; `until` handles the sampling
            # boundary and event interleaving per op.
            cap = check_every - issued % check_every
            if cap > seg:
                cap = seg
            if max_ops is not None and max_ops - issued < cap:
                cap = max_ops - issued
            end = offset + cap
            if end > cur_len:
                end = cur_len
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
                    took = put_many(cur_keys[offset:end],
                                    cur_seeds[offset:end], vlen, until, sink)
                    version += took
                elif cur_kind == READ:
                    took = get_many(cur_keys[offset:end], until, sink)
                elif cur_kind == SCAN:
                    took = scan_many(cur_keys[offset:end], scan_length,
                                     until, sink)
                else:  # DELETE
                    took = delete_many(cur_keys[offset:end], until, sink)
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
                self._maybe_sample(clock)
            seg = segment_cap
            if heap and heap[0][0] <= now:  # next_time(), inlined
                # Another task's event is due (or an op scheduled
                # background work): suspend until this operation's
                # completion time, exactly where a one-op-per-event
                # client would have yielded.
                seg = 1
                yield 0.0
        # Anchor the client's completion on the timeline: Scheduler.run
        # restores global time when a step ends, so end with one no-op
        # event at the last op's completion — the same final event a
        # one-op-per-event client's last resume-and-return produces.
        yield 0.0

    def _maybe_sample(self, clock) -> None:
        """The boundary-crossing sampler, pool-global."""
        self._next_sample = _after_op_sample(
            clock, self._next_sample, self.sample_interval, self.on_sample
        )
