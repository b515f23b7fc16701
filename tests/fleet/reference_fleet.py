"""Reference open-loop fleet: one per-op KV call per served op (DESIGN.md §10.2).

An arrival source emits one operation per arrival, routes it by key and
admits it into the owning shard's FIFO queue unless that queue — the
waiting ops plus the one in service — is at its cap.  Each shard serves
its queue one op per scheduler event through the per-op KV API
(``put``/``get``/``scan``/``delete``), skips ops that waited past the
deadline, and records every served op's response time (completion −
arrival).  Keys and op kinds are drawn one ``next_key`` / ``random`` at
a time.  Nothing here comes from the shipped open-loop driver
(``repro.fleet.pool``) or the planner (``repro.workload.plan``), the way
``tests/workload/reference_driver.py`` shares nothing with the
closed-loop pool — so agreement with ``FleetPool`` is rightness, not
sameness.  There is no kill, retry or fault path: the lockstep covers
the plain open loop.
"""

from __future__ import annotations

from collections import deque

from repro import rng as rng_mod
from repro.errors import NoSpaceError
from repro.kv.values import value_for
from repro.sim.scheduler import Scheduler
from repro.workload.keys import make_chooser


def load(shards, router, spec):
    """Ingest every key once, in key order, on the shard owning it;
    then flush the shards in order.  Returns the puts that completed,
    stopping at the first one that found no space."""
    done = 0
    try:
        for key in range(spec.nkeys):
            shards[router.shard_for(key)].put(
                key, value_for(key, 0, spec.value_bytes))
            done += 1
        for store in shards:
            store.flush()
    except NoSpaceError:
        pass
    return done


def run(shards, router, spec, arrival, seed, max_ops, queue_cap,
        op_timeout=None, stop_when=lambda: False, sample_interval=None,
        on_sample=None):
    """Drive open-loop traffic until *max_ops* arrivals (or the stop
    condition, asked every 64 arrivals) and every queue has drained.

    Returns one dict per shard: ``offered``, ``admitted``,
    ``rejected``, ``completed``, ``timeouts``, ``qdepth_sum``,
    ``qdepth_max`` and ``responses`` (every served op's response time,
    in completion order), plus whether the run ran out of space.
    """
    clock = shards[0].clock
    scheduler = Scheduler(clock)
    for store in shards:
        store.attach_scheduler(scheduler)
    rows = [dict(offered=0, admitted=0, rejected=0, completed=0, timeouts=0,
                 qdepth_sum=0, qdepth_max=0, responses=[]) for _ in shards]
    queues = [deque() for _ in shards]
    busy = [False] * len(shards)
    chooser = make_chooser(spec.distribution, spec.nkeys,
                           rng_mod.substream(seed, "workload-keys"))
    op_rng = rng_mod.substream(seed, "workload-ops")
    t_read, t_scan, t_delete = spec.thresholds()
    state = dict(stopped=False, out_of_space=False, version=0,
                 next_sample=(clock.now + sample_interval
                              if sample_interval else None))

    def sample():
        """Fire on_sample when a completion reached the boundary; a
        stall that skips whole windows restarts the sampling clock."""
        now = clock.now
        if state["next_sample"] is not None and now >= state["next_sample"]:
            on_sample()
            state["next_sample"] += sample_interval
            if state["next_sample"] <= now:
                state["next_sample"] = now + sample_interval

    def serve(shard):
        store, queue, row = shards[shard], queues[shard], rows[shard]
        while queue:
            op, key, version, arrived = queue.popleft()
            if op_timeout is not None and clock.now - arrived > op_timeout:
                row["timeouts"] += 1
                continue
            try:
                if op == "get":
                    store.get(key)
                elif op == "scan":
                    store.scan(key, spec.scan_length)
                elif op == "delete":
                    store.delete(key)
                else:
                    store.put(key, value_for(key, version, spec.value_bytes))
            except NoSpaceError:
                state["stopped"] = state["out_of_space"] = True
                break
            row["responses"].append(clock.now - arrived)
            row["completed"] += 1
            sample()
            yield 0.0  # suspend until this op's completion time
        busy[shard] = False
        yield 0.0  # put the last op's completion on the timeline

    def source():
        offered = 0
        while not state["stopped"] and offered < max_ops:
            if offered % 64 == 0 and stop_when():
                state["stopped"] = True
                break
            yield arrival.next_gap()
            if state["stopped"]:
                break
            key = chooser.next_key()
            draw = op_rng.random()
            if draw < t_read:
                op = "get"
            elif draw < t_scan:
                op = "scan"
            elif draw < t_delete:
                op = "delete"
            else:
                op = "put"
            shard = router.shard_for(key)
            row = rows[shard]
            offered += 1
            row["offered"] += 1
            depth = len(queues[shard]) + busy[shard]
            row["qdepth_sum"] += depth
            row["qdepth_max"] = max(row["qdepth_max"], depth)
            if depth >= queue_cap:
                row["rejected"] += 1
                continue
            version = 0
            if op == "put":
                state["version"] += 1  # the n-th admitted put writes version n
                version = state["version"]
            queues[shard].append((op, key, version, clock.now))
            row["admitted"] += 1
            if not busy[shard]:
                busy[shard] = True
                scheduler.spawn(serve(shard))

    scheduler.spawn(source())
    try:
        scheduler.run()
    except NoSpaceError:  # raised by a scheduled flush/compaction/checkpoint
        state["out_of_space"] = True
    return rows, state["out_of_space"]
