"""Reference workload drivers: one KV call per operation (DESIGN.md §6.1).

The paper's method (§3.2) is one user thread issuing operations in
order against one stack; its queue-depth model is N such threads, each
with exactly one operation outstanding.  This module says that with the
public per-op KV API (``put``/``get``/``scan``/``delete``) and nothing
else: no planner, no batch call, no ``until``.  Over several shards
every call goes to the shard ``router.shard_for(key)`` names, one key
at a time, the way ``tests/fleet/reference_fleet.py`` routes.  It
shares no code with the shipped drivers (``repro.workload.runner``,
``repro.workload.plan``, ``repro.fleet.pool``) — the way
``tests/flash/naive_ftl.py`` shares none with the FTL — so agreement
with them is rightness, not sameness.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro import rng as rng_mod
from repro.errors import NoSpaceError
from repro.kv.values import value_for
from repro.sim.scheduler import Scheduler
from repro.workload.keys import make_chooser


def load(stores, router, spec):
    """Ingest every key once, in key order, on the shard owning it;
    then flush the shards in order."""
    outcome = SimpleNamespace(ops_issued=0, out_of_space=False)
    try:
        for key in range(spec.nkeys):
            stores[router.shard_for(key)].put(
                key, value_for(key, 0, spec.value_bytes))
            outcome.ops_issued += 1
        for store in stores:
            store.flush()
    except NoSpaceError:
        outcome.out_of_space = True
    return outcome


def op_stream(stores, router, spec, seed, client=0):
    """Client *client*'s op stream as a function: each call draws a key,
    then an op kind, issues that one op on the key's shard and returns
    its latency."""
    prefix = "workload" if client == 0 else f"client{client}"
    chooser = make_chooser(spec.distribution, spec.nkeys,
                           rng_mod.substream(seed, f"{prefix}-keys"))
    op_rng = rng_mod.substream(seed, f"{prefix}-ops")
    t_read, t_scan, t_delete = spec.thresholds()
    version = 0

    def issue() -> float:
        nonlocal version
        key = chooser.next_key()
        draw = op_rng.random()
        store = stores[router.shard_for(key)]
        if draw < t_read:
            return store.get(key)[0]
        if draw < t_scan:
            return store.scan(key, spec.scan_length)[0]
        if draw < t_delete:
            return store.delete(key)
        version += 1  # the n-th update of this client writes version n
        return store.put(key, value_for(key, version, spec.value_bytes))

    return issue


class Run:
    """What all clients of one run share: the op count and budget, the
    stop condition (asked every 64 issued ops) and the sampling clock."""

    def __init__(self, clock, stop_when=lambda: False, max_ops=None,
                 sample_interval=None, on_sample=None):
        self.clock, self.stop_when, self.max_ops = clock, stop_when, max_ops
        self.sample_interval, self.on_sample = sample_interval, on_sample
        self.next_sample = clock.now + sample_interval if sample_interval else None
        self.ops_issued = 0
        self.out_of_space = self.stopped = False

    def may_issue(self) -> bool:
        if self.stopped or self.ops_issued == self.max_ops:
            return False
        if self.ops_issued % 64 == 0 and self.stop_when():
            self.stopped = True
        return not self.stopped

    def completed(self) -> None:
        """Count one op; sample if its completion reached the boundary.
        A stall that skips whole windows restarts the sampling clock."""
        self.ops_issued += 1
        now = self.clock.now
        if self.next_sample is not None and now >= self.next_sample:
            self.on_sample()
            self.next_sample += self.sample_interval
            if self.next_sample <= now:
                self.next_sample = now + self.sample_interval


def run(stores, router, spec, seed, **limits):
    """One user thread: issue ops back to back until told to stop."""
    state = Run(stores[0].clock, **limits)
    issue = op_stream(stores, router, spec, seed)
    try:
        while state.may_issue():
            issue()
            state.completed()
    except NoSpaceError:
        state.out_of_space = True
    return state


def run_pool(stores, router, spec, nclients, seed, **limits):
    """N closed-loop clients, one scheduler event per operation."""
    state = Run(stores[0].clock, **limits)
    state.per_client_ops = [0] * nclients
    state.latencies = [[] for _ in range(nclients)]
    scheduler = Scheduler(stores[0].clock)

    def client(i):
        issue = op_stream(stores, router, spec, seed, i)
        while state.may_issue():
            try:
                state.latencies[i].append(issue())
            except NoSpaceError:
                state.out_of_space = state.stopped = True
                return
            state.per_client_ops[i] += 1
            state.completed()
            yield 0.0  # suspend until this op's completion time

    for i in range(nclients):
        scheduler.spawn(client(i), label=f"client{i}")
    scheduler.run()  # each client catches its own NoSpaceError
    return state
