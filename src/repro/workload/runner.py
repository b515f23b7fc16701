"""The load phase and what a measured phase reports.

The measured phase has one driver, :class:`repro.fleet.pool.FleetPool`
on the discrete-event scheduler, with two sources: closed-loop clients
(a lone one is the paper's single user thread, §3.2) and open-loop
arrivals.  This module holds :func:`load_sequential` (the sequential
load phase), :class:`RunOutcome`, the ``stop_when`` window
:data:`CHECK_EVERY` and the sampling arguments' check; the sampling
windows are what turn metrics into a time series (the paper's
10-minute averages, DESIGN.md §2).  Every op goes through the engines'
batch API (``put_many`` & co.); no shipped driver calls the per-op
``put``/``get``/``scan``/``delete`` — the examples and the tests'
reference drivers do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import ConfigError, NoSpaceError
from repro.kv.api import KVStore
from repro.kv.values import seeds_for
from repro.workload.spec import WorkloadSpec

if TYPE_CHECKING:
    from repro.core.metrics import ClientLatencies
    from repro.fleet.pool import FleetCounters
    from repro.fleet.router import Router


#: How often (in completed or offered ops) drivers re-evaluate
#: ``stop_when`` — the reference driver's stop rule (DESIGN.md §6.1).
#: It is also the generation window: keys/op-draws are drawn once per
#: window, so the stop checks land on window boundaries.
CHECK_EVERY = 64

#: Keys ingested per batch call during the sequential load phase.
LOAD_CHUNK = 4096


@dataclass(slots=True)
class RunOutcome:
    """What happened during a (partial) load or measured phase, under
    any driver.  ``ops_issued`` counts *completed* operations; slotted,
    because the closed clients update it on every batch segment.

    Closed-loop drivers have no admission control: every op offered is
    admitted and completes.  An open-loop run attaches one
    :class:`~repro.fleet.pool.FleetCounters` block per shard (``fleet``;
    a fleet total is their sum) beside the per-shard state that does
    not add up.  Every offered op ends in exactly one of rejected /
    completed / failed / timed-out, or is still queued in a run that ran
    out of space: a stop fails each op backing off before a retry, and
    the servers drain their queues.  ``failed`` mixes ops dropped after
    admission with ops bounced off a down shard whose retries ran out or
    were stopped before any, so offered = admitted + rejected is *not* a
    law; ``completed + timeouts <= admitted <= offered - rejected`` is.
    """

    ops_issued: int = 0
    out_of_space: bool = False
    load_seconds: float = 0.0
    run_seconds: float = 0.0
    events_run: int = 0  # scheduler events dispatched (measured phase)
    per_client_ops: list[int] | None = None
    latencies: ClientLatencies | None = None  # per client; per shard open-loop
    fleet: list[FleetCounters] | None = None
    qdepth_max: list[int] | None = None
    health: list[str] | None = None  # final per-shard state


def load_sequential(stores: Sequence[KVStore], router: Router,
                    spec: WorkloadSpec) -> RunOutcome:
    """Ingest all keys in sequential order (the paper's load phase):
    :data:`LOAD_CHUNK` keys at a time, each chunk cut at the end of
    every same-shard run and put through the owning shard's
    ``put_many``; then flush the shards in order."""
    outcome = RunOutcome()
    clock = stores[0].clock
    start = clock.now
    try:
        vlen = spec.value_bytes
        for lo in range(0, spec.nkeys, LOAD_CHUNK):
            keys = np.arange(lo, min(spec.nkeys, lo + LOAD_CHUNK),
                             dtype=np.int64)
            seeds = seeds_for(keys, 0).tolist()
            keys = keys.tolist()
            i, n = 0, len(keys)
            while i < n:
                shard, j = router.shard_run(keys, i, n)
                outcome.ops_issued += stores[shard].put_many(
                    keys[i:j], seeds[i:j], vlen)
                i = j
        for store in stores:
            store.flush()
    except NoSpaceError as exc:
        outcome.ops_issued += getattr(exc, "ops_done", 0)
        outcome.out_of_space = True
    outcome.load_seconds = clock.now - start
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
    if sample_interval is not None and not 0 < sample_interval < math.inf:
        raise ConfigError("sample_interval must be positive and finite")
