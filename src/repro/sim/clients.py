"""The multi-client workload driver (DESIGN.md §4.4, §7).

A :class:`ClientPool` runs *nclients* closed-loop clients against one
shared store on the discrete-event scheduler.  Each client is a
cooperative task: it issues operations (whose latency is captured by
the clock's step time), suspends until the last operation's completion
time whenever another task's event is due, then resumes — so at any
instant up to *nclients* operations are outstanding and the device's
per-channel queues see a real queue depth.

Each client is *batched* (DESIGN.md §7): it plans windows of
operations through the shared :class:`~repro.workload.plan.
BatchPlanner` and issues same-kind runs through the store's batch API
with an event-scheduler-aware ``until`` (:class:`~repro.workload.plan.
EventAwareUntil`).  A batch call executes operations back to back
inside one event step only while no other event is pending before the
client's clock — the moment an operation's completion reaches another
task's event time (or an operation schedules background work), the
batch returns, the client yields, and the event order proceeds exactly
as if every operation had been its own scheduler event.  That
one-op-per-event pool is ``tests/workload/reference_driver.py``; the
tests hold this module to it.

Reproducibility rules:

* client 0 draws from the seed runner's RNG substreams
  (``workload-keys`` / ``workload-ops``), so a one-client pool issues
  the exact operation stream of :func:`repro.workload.runner.
  run_workload` and its outcome is bit-identical to the seed path;
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
append to their ``latencies`` sink).

``stop_when`` / ``max_ops`` / sampling are pool-global, mirroring the
inline runner: the sampling callback fires when *any* client's
completion crosses the boundary, the op budget counts operations
across all clients, and ``stop_when`` is evaluated whenever the
global op count crosses a :data:`~repro.workload.runner.CHECK_EVERY`
boundary (batch segments are cut at those boundaries so the check
lands on the same op counts as with one op per event).
"""

from __future__ import annotations

from typing import Callable

from repro import rng as rng_mod
from repro.core.metrics import ClientLatencies
from repro.errors import ConfigError, NoSpaceError
from repro.kv.api import KVStore
from repro.obs.tracer import NULL_TRACER
from repro.sim.scheduler import Scheduler
from repro.workload.keys import make_chooser
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
        ssd=None,
        tracer=NULL_TRACER,
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
        self.ssd = ssd
        self.tracer = tracer

    def run(self) -> RunOutcome:
        """Drive all clients until stop/budget/out-of-space; blocking."""
        clock = self.store.clock
        scheduler = Scheduler(clock)
        scheduler.obs_tracer = self.tracer
        self._scheduler = scheduler
        if self.nclients > 1:
            # The degenerate one-client case keeps the seed's inline
            # background work and scalar device timing — bit-identical
            # to run_workload; concurrency turns on the event-driven
            # engine mode and the per-channel device model.
            self.store.attach_scheduler(scheduler)
            if self.ssd is not None:
                self.ssd.enable_channel_timing()
        outcome = RunOutcome(
            per_client_ops=[0] * self.nclients,
            latencies=ClientLatencies(self.nclients),
        )
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
            # the run ends and is reported, like the inline runner.
            outcome.out_of_space = True
            self._stop = True
        outcome.run_seconds = clock.now - start
        outcome.events_run = scheduler.events_run
        return outcome

    # ------------------------------------------------------------------
    # The client task (DESIGN.md §7)
    # ------------------------------------------------------------------
    #: Largest single batch-call segment.  Must divide CHECK_EVERY so
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
        per_client = outcome.per_client_ops
        sink = outcome.latencies.sink(client_id)
        planner = BatchPlanner(spec, *self._substreams(client_id))
        until = EventAwareUntil(scheduler)
        put_many = store.put_many
        get_many = store.get_many
        scan_many = store.scan_many
        delete_many = store.delete_many
        segment_cap = self.SEGMENT_CAP
        vlen = spec.value_bytes
        scan_length = spec.scan_length
        max_ops = self.max_ops
        stop_when = self.stop_when
        check_every = CHECK_EVERY
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
        # will be stopped after one op anyway, so a 1-op segment takes
        # the engines' single-op fast path; the moment a call ends with
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
            # Client tasks always run inside an event step, so the
            # capture-mode step time *is* clock.now — read it without
            # the property dispatch (Scheduler.run owns the capture
            # protocol and set this field on entry to the step).
            now = clock._step_now
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
        # Anchor the client's completion on the timeline: step-local
        # time is discarded when a task returns, so end with one no-op
        # event at the last op's completion — the same final event a
        # one-op-per-event client's last resume-and-return produces.
        yield 0.0

    def _substreams(self, client_id: int):
        """(key chooser, op rng) for one client's deterministic stream."""
        if client_id == 0:
            key_label, op_label = "workload-keys", "workload-ops"
        else:
            key_label = f"client{client_id}-keys"
            op_label = f"client{client_id}-ops"
        key_rng = rng_mod.substream(self.seed, key_label)
        op_rng = rng_mod.substream(self.seed, op_label)
        chooser = make_chooser(self.spec.distribution, self.spec.nkeys, key_rng)
        return chooser, op_rng

    def _maybe_sample(self, clock) -> None:
        """The inline runner's boundary-crossing sampler, pool-global."""
        self._next_sample = _after_op_sample(
            clock, self._next_sample, self.sample_interval, self.on_sample
        )
