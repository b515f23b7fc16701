"""Drives a key-value store with a workload on the virtual clock.

The runner is the paper's single user thread (§3.2): operations are
issued in order, each advancing the virtual clock by its latency, and
a sampling callback fires at a fixed virtual-time interval so metrics
become a time series (the paper's 10-minute averages map to our
sampling windows; see DESIGN.md §2).

Execution is batched (DESIGN.md §6): keys and op types are drawn with
one RNG call per ``CHECK_EVERY`` window and dispatched as runs through
the engines' batch API (``put_many`` & co.).  The window draw and run
segmentation live in the shared batch planner
(:class:`repro.workload.plan.BatchPlanner`, DESIGN.md §7): the key and
op-draw substreams are independent generators and numpy's bulk draws
consume them exactly like the equivalent scalar draws, so the op
stream, clock and metrics are those of a loop issuing one per-op KV
call at a time — which is what ``tests/workload/reference_driver.py``
is, and what the tests hold this module to.  Sampling stays exact
because batch calls stop at the ``until`` boundary — right after the
op that crosses it, where a per-op loop would fire the callback.

Multi-client workloads are driven by :class:`repro.sim.clients.
ClientPool` on the discrete-event scheduler (DESIGN.md §4); it
consumes the same planner, so a one-client pool issues the exact
operation stream of this runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import rng as rng_mod
from repro.errors import ConfigError, NoSpaceError
from repro.kv.api import KVStore
from repro.kv.values import seeds_for, value_for
from repro.workload.keys import make_chooser
from repro.workload.plan import READ, SCAN, UPDATE, BatchPlanner, update_seeds
from repro.workload.spec import WorkloadSpec

if TYPE_CHECKING:
    from repro.core.metrics import ClientLatencies
    from repro.fleet.pool import FleetCounters


#: How often (in completed ops) drivers re-evaluate ``stop_when``.
#: Shared with the client pool so both drivers stop at the same op
#: counts (part of the bit-identical seed-compatibility contract).
#: It is also the generation window: keys/op-draws are drawn once per
#: window, so the stop checks land on window boundaries.
CHECK_EVERY = 64

#: Keys ingested per batch call during the sequential load phase.
LOAD_CHUNK = 4096


@dataclass(slots=True)
class RunOutcome:
    """What happened during a (partial) load or measured phase, under
    any driver.  ``ops_issued`` counts *completed* operations; slotted,
    because the pools update it on every batch segment of every client.

    Closed-loop drivers have no admission control: every op offered is
    admitted and completes.  An open-loop run attaches one
    :class:`~repro.fleet.pool.FleetCounters` block per shard (``fleet``;
    a fleet total is their sum) beside the per-shard state that does
    not add up.  Every offered op ends in exactly one of rejected /
    completed / failed / timed-out / still in flight at the stop
    (queued, or backing off before a retry).  ``failed`` mixes ops
    dropped after admission with ops bounced off a down shard whose
    retries ran out before any, so offered = admitted + rejected is
    *not* a law; ``completed + timeouts <= admitted <= offered -
    rejected`` is.
    """

    ops_issued: int = 0
    out_of_space: bool = False
    load_seconds: float = 0.0
    run_seconds: float = 0.0
    events_run: int = 0  # scheduler events dispatched (pools only)
    per_client_ops: list[int] | None = None
    latencies: ClientLatencies | None = None  # per client; per shard open-loop
    fleet: list[FleetCounters] | None = None
    qdepth_max: list[int] | None = None
    health: list[str] | None = None  # final per-shard state


def load_sequential(store: KVStore, spec: WorkloadSpec) -> RunOutcome:
    """Ingest all keys in sequential order (the paper's load phase),
    through the engines' ``put_many`` in :data:`LOAD_CHUNK` slices."""
    outcome = RunOutcome()
    start = store_clock(store).now
    try:
        vlen = spec.value_bytes
        for lo in range(0, spec.nkeys, LOAD_CHUNK):
            keys = np.arange(lo, min(spec.nkeys, lo + LOAD_CHUNK),
                             dtype=np.int64)
            outcome.ops_issued += store.put_many(keys, seeds_for(keys, 0), vlen)
        store.flush()
    except NoSpaceError as exc:
        outcome.ops_issued += getattr(exc, "ops_done", 0)
        outcome.out_of_space = True
    outcome.load_seconds = store_clock(store).now - start
    return outcome


def validate_sampling(sample_interval: float | None,
                      on_sample: Callable[[], None] | None) -> None:
    """Fail fast on inconsistent sampling arguments.

    ``sample_interval`` without ``on_sample`` used to surface as a
    ``TypeError`` mid-run at the first boundary; both mismatches are
    rejected at call time instead.
    """
    if (sample_interval is None) != (on_sample is None):
        raise ConfigError(
            "sample_interval and on_sample must be passed together "
            f"(got sample_interval={sample_interval!r}, "
            f"on_sample={'set' if on_sample else None!r})"
        )
    if sample_interval is not None and sample_interval <= 0:
        raise ConfigError("sample_interval must be positive")


def apply_op(
    store: KVStore,
    spec: WorkloadSpec,
    kind: int,
    key: int,
    version: int,
) -> tuple[int, float]:
    """Execute one already-drawn operation; returns (version, latency).

    The execution half of the per-op issue path (the drawing half is
    :func:`repro.workload.plan.draw_op`), used by the open-loop fleet
    sources, whose service is per-op by definition.  The returned
    latency is the op's user-visible latency, the same value the
    engines append into a batch call's ``latencies`` sink.
    """
    if kind == READ:
        latency, _value = store.get(key)
    elif kind == SCAN:
        latency, _pairs = store.scan(key, spec.scan_length)
    elif kind == UPDATE:
        latency = store.put(key, value_for(key, version, spec.value_bytes))
        version += 1
    else:  # DELETE
        latency = store.delete(key)
    return version, latency


def run_workload(
    store: KVStore,
    spec: WorkloadSpec,
    seed: int = rng_mod.DEFAULT_SEED,
    stop_when: Callable[[], bool] = lambda: False,
    sample_interval: float | None = None,
    on_sample: Callable[[], None] | None = None,
    max_ops: int | None = None,
) -> RunOutcome:
    """Run the measured phase until *stop_when* (or *max_ops*).

    ``on_sample`` fires whenever the virtual clock crosses a sampling
    boundary.  Returns the run outcome; an out-of-space condition ends
    the run and is reported rather than raised (the paper reports
    RocksDB running out of space for large datasets, §4.4).
    """
    validate_sampling(sample_interval, on_sample)
    clock = store_clock(store)
    key_rng = rng_mod.substream(seed, "workload-keys")
    op_rng = rng_mod.substream(seed, "workload-ops")
    chooser = make_chooser(spec.distribution, spec.nkeys, key_rng)
    outcome = RunOutcome()
    version = 1
    next_sample = clock.now + sample_interval if sample_interval else None

    # The shared planner draws one RNG window per CHECK_EVERY ops and
    # segments it into runs of same-type ops, dispatched through the
    # store's batch API; a call returns early at the sampling boundary.
    planner = BatchPlanner(spec, chooser, op_rng)
    vlen = spec.value_bytes
    scan_length = spec.scan_length
    try:
        while True:
            if max_ops is not None and outcome.ops_issued >= max_ops:
                break
            if outcome.ops_issued % CHECK_EVERY == 0 and stop_when():
                break
            n = CHECK_EVERY
            if max_ops is not None:
                n = min(n, max_ops - outcome.ops_issued)
            for run in planner.plan(n):
                keys = run.keys
                seeds = update_seeds(keys, version) if run.kind == UPDATE else None
                offset = 0
                while offset < len(run):
                    if run.kind == UPDATE:
                        took = store.put_many(keys[offset:], seeds[offset:],
                                              vlen, until=next_sample)
                        version += took
                    elif run.kind == READ:
                        took = store.get_many(keys[offset:], until=next_sample)
                    elif run.kind == SCAN:
                        took = store.scan_many(keys[offset:], scan_length,
                                               until=next_sample)
                    else:  # DELETE run
                        took = store.delete_many(keys[offset:], until=next_sample)
                    offset += took
                    outcome.ops_issued += took
                    next_sample = _after_op_sample(clock, next_sample,
                                                   sample_interval, on_sample)
    except NoSpaceError as exc:
        outcome.ops_issued += getattr(exc, "ops_done", 0)
        outcome.out_of_space = True
    return outcome


def _after_op_sample(clock, next_sample, sample_interval, on_sample):
    """The per-op boundary check the runner and the pool share.

    Fires ``on_sample`` when the clock reached the boundary and returns
    the next one.  Batch calls return control right after the crossing
    op (their ``until`` contract), so the callback observes the store
    exactly as it is when that op completes.
    """
    if next_sample is not None and clock.now >= next_sample:
        on_sample()
        next_sample += sample_interval
        if next_sample <= clock.now:
            # A stall carried the clock past several boundaries;
            # resynchronize instead of firing empty windows.
            next_sample = clock.now + sample_interval
    return next_sample


def store_clock(store: KVStore):
    """The store's virtual clock (both engines expose ``.clock``)."""
    return store.clock
