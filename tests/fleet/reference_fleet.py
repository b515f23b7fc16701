"""Reference open-loop fleet: one per-op KV call per served op (DESIGN.md §10.2).

An arrival source emits one operation per arrival, routes it by key and
admits it into the owning shard's FIFO queue unless that queue — the
waiting ops plus the one in service — is at its cap.  Each shard serves
its queue one op per scheduler event through the per-op KV API
(``put``/``get``/``scan``/``delete``), skips ops that waited past the
deadline, and records every served op's response time (completion −
arrival).  Keys and op kinds are drawn one ``next_key`` / ``random`` at
a time.  A shard's service is a task spawned when an admission finds
the shard idle, which ends when its queue drains.

A kill crashes one shard at a date: the first arrival or service step
at or after it drops the shard's queue (those ops fail) and marks it
down, unless the run has stopped.  Arrivals at a shard that is not
serving fail fast; the first to find it down starts its recovery
(``crash_and_recover``, then the recovery time on the clock), after
which the shard is degraded until ``queue_cap`` completions bring it
back up.  A failed-fast op retries: each attempt backs off
``retry_backoff * 2**attempt`` times a uniform [1, 2) factor from the
``"fleet-retry"`` substream, then tries admission again (starting the
recovery itself if the shard is still down) — and it fails when its
attempts run out or the run has stopped meanwhile.  There is no device
fault path.

Nothing here comes from the shipped open-loop driver
(``repro.fleet.pool``) or the planner (``repro.workload.plan``), the way
``tests/workload/reference_driver.py`` shares nothing with the
closed-loop pool — so agreement with ``FleetPool`` is rightness, not
sameness.
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
        on_sample=None, kill_at=None, kill_shard=0, retry_limit=3,
        retry_backoff=0.0005):
    """Drive open-loop traffic until *max_ops* arrivals (or the stop
    condition, asked every 64 arrivals) and every queue has drained and
    every retry resolved.

    Returns one dict per shard: ``offered``, ``admitted``,
    ``rejected``, ``completed``, ``timeouts``, ``failed``, ``retries``,
    ``lost_keys``, ``recovery_seconds``, ``downtime_seconds``,
    ``qdepth_sum``, ``qdepth_max`` and ``responses`` (every served op's
    response time, in completion order); each shard's final health; and
    whether the run ran out of space.
    """
    clock = shards[0].clock
    scheduler = Scheduler(clock)
    rows = [dict(offered=0, admitted=0, rejected=0, completed=0, timeouts=0,
                 failed=0, retries=0, lost_keys=0, recovery_seconds=0.0,
                 downtime_seconds=0.0, qdepth_sum=0, qdepth_max=0,
                 responses=[]) for _ in shards]
    queues = [deque() for _ in shards]
    busy = [False] * len(shards)
    chooser = make_chooser(spec.distribution, spec.nkeys,
                           rng_mod.substream(seed, "workload-keys"))
    op_rng = rng_mod.substream(seed, "workload-ops")
    t_read, t_scan, t_delete = spec.thresholds()
    state = dict(stopped=False, out_of_space=False, version=0,
                 next_sample=(clock.now + sample_interval
                              if sample_interval else None),
                 kill_due=None if kill_at is None else clock.now + kill_at)
    health = ["up"] * len(shards)
    down_since = [0.0] * len(shards)
    degraded_left = [0] * len(shards)
    jitter = rng_mod.substream(seed, "fleet-retry")

    def sample():
        """Fire on_sample when a completion reached the boundary; a
        stall that skips whole windows restarts the sampling clock."""
        now = clock.now
        if state["next_sample"] is not None and now >= state["next_sample"]:
            on_sample()
            state["next_sample"] += sample_interval
            if state["next_sample"] <= now:
                state["next_sample"] = now + sample_interval

    def crash_if_due():
        """The first step at or after the kill date carries it out."""
        due = state["kill_due"]
        if due is None or clock.now < due:
            return
        state["kill_due"] = None
        if state["stopped"]:
            return
        health[kill_shard] = "down"
        down_since[kill_shard] = due
        rows[kill_shard]["failed"] += len(queues[kill_shard])
        queues[kill_shard].clear()

    def recover(shard):
        health[shard] = "recovering"
        seconds, lost = shards[shard].crash_and_recover()
        rows[shard]["recovery_seconds"] += seconds
        rows[shard]["lost_keys"] += len(lost)

        def recovered():
            health[shard] = "degraded"
            degraded_left[shard] = queue_cap
            rows[shard]["downtime_seconds"] += clock.now - down_since[shard]

        scheduler.schedule(seconds, recovered)

    def enqueue(shard, op, key, arrived):
        version = 0
        if op == "put":
            state["version"] += 1  # the n-th admitted put writes version n
            version = state["version"]
        queues[shard].append((op, key, version, arrived))
        rows[shard]["admitted"] += 1
        if not busy[shard]:
            busy[shard] = True
            scheduler.spawn(serve(shard))

    def retry(shard, op, key, arrived):
        row = rows[shard]
        for attempt in range(retry_limit):
            row["retries"] += 1
            yield retry_backoff * 2.0 ** attempt * (1.0 + jitter.random())
            if state["stopped"]:
                break
            if health[shard] == "down":
                recover(shard)
            elif (health[shard] in ("up", "degraded")
                  and len(queues[shard]) + busy[shard] < queue_cap):
                enqueue(shard, op, key, arrived)
                return
        row["failed"] += 1

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
            if health[shard] == "degraded":
                degraded_left[shard] -= 1
                if degraded_left[shard] == 0:
                    health[shard] = "up"
            sample()
            yield 0.0  # suspend until this op's completion time
            crash_if_due()
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
            crash_if_due()
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
            if health[shard] not in ("up", "degraded"):
                if health[shard] == "down":
                    recover(shard)
                if retry_limit:
                    scheduler.spawn(retry(shard, op, key, clock.now))
                else:
                    row["failed"] += 1
                continue
            depth = len(queues[shard]) + busy[shard]
            row["qdepth_sum"] += depth
            row["qdepth_max"] = max(row["qdepth_max"], depth)
            if depth >= queue_cap:
                row["rejected"] += 1
                continue
            enqueue(shard, op, key, clock.now)

    scheduler.spawn(source())
    try:
        scheduler.run()
    except NoSpaceError:  # raised by a killed shard's recovery flush
        state["out_of_space"] = True
    return rows, health, state["out_of_space"]
