"""The open-loop fleet in lockstep with the reference fleet (DESIGN.md §10.2).

``FleetPool``'s open source draws its op stream through the batch
planner a window at a time and serves each admitted op as a one-op call
of the shard engine's batch API; ``reference_fleet.py`` draws one key and one op
kind per arrival and serves through the per-op KV API, sharing no code
with either.  Over drawn fleets — engine, one to three shards, router,
arrival rate from idle to far past saturation, queue cap, op mix, op
budget, op deadline, sampling, a stop condition, and a shard kill with
its retries (limit and backoff), the stop landing mid-outage too —
both must leave the same fleet behind: per-shard admission, failure,
retry and recovery accounting, queue depths and final health, every
response time of every shard, the clock, every sample time, and each
shard's SMART counters, engine counters and contents.  The reference
also holds the outcome partition: in a run that kept its space every
offered op ended rejected, completed, failed or timed out.

CI also runs this file under the derandomized ``ci`` hypothesis
profile (``tests/conftest.py``): ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import rng as rng_mod
from repro.fleet.arrival import make_arrival
from repro.fleet.pool import FleetPool
from repro.fleet.router import make_router
from repro.workload.keys import DISTRIBUTIONS
from repro.workload.runner import load_sequential
from repro.workload.spec import WorkloadSpec
from tests.fleet import reference_fleet
from tests.workload.test_batched_runner import make_shards

fraction = st.sampled_from([0.0, 0.1, 0.3, 0.5])
NO_KILL = dict(kill_at=None, kill_shard=0, retry_limit=3, retry_backoff=0.0005)
fleet = st.fixed_dictionaries(dict(
    engine=st.sampled_from(["lsm", "btree"]),
    nshards=st.integers(1, 3),
    router=st.sampled_from(["hash", "range"]),
    # A tiny-device op is served in tens of microseconds to a few
    # milliseconds, so these run from idle queues to constant rejects.
    rate=st.sampled_from([500.0, 5_000.0, 50_000.0, 500_000.0]),
    queue_cap=st.integers(1, 8),
    fractions=st.tuples(fraction, fraction, fraction).filter(
        lambda f: sum(f) <= 1.0),  # read, scan, delete; the rest update
    distribution=st.sampled_from(sorted(DISTRIBUTIONS)),
    scan_length=st.integers(1, 30),
    max_ops=st.integers(1, 400),
    op_timeout=st.sampled_from([None, 0.0002, 0.002, 0.02]),
    sample_interval=st.sampled_from([None, 0.002, 0.01]),
    stop_after=st.sampled_from([None, 0.005]),  # seconds into the run
    kill_at=st.sampled_from([None, 0.0005, 0.002, 0.01]),
    kill_shard=st.integers(0, 2),  # modulo the shard count
    retry_limit=st.integers(0, 4),
    # Backoffs from far below an op's service time to past the stop.
    retry_backoff=st.sampled_from([0.0001, 0.001, 0.004]),
    seed=st.integers(0, 2**32 - 1),
))


def drive(reference: bool, engine, nshards, router, rate, queue_cap,
          fractions, distribution, scan_length, max_ops, op_timeout,
          sample_interval, stop_after, kill_at, kill_shard, retry_limit,
          retry_backoff, seed):
    """Load a fleet and run one drawn open loop; everything observable."""
    read, scan, delete = fractions
    spec = WorkloadSpec(nkeys=150, value_bytes=120, read_fraction=read,
                        scan_fraction=scan, delete_fraction=delete,
                        scan_length=scan_length, distribution=distribution)
    clock, stores, ssds = make_shards(engine, nshards)
    route = make_router(router, nshards, spec.nkeys)
    kill_shard %= nshards
    chaos = dict(kill_at=kill_at, kill_shard=kill_shard,
                 retry_limit=retry_limit, retry_backoff=retry_backoff)
    if kill_at is not None:
        stores[kill_shard].enable_crash_tracking()
    if reference:
        reference_fleet.load(stores, route, spec)
    else:
        load_sequential(stores, route, spec)
    for ssd in ssds:
        ssd.drain()
        ssd.enable_channel_timing()  # arrivals: per-channel devices
    arrival = make_arrival("poisson", rate, rng_mod.substream(seed, "arrival"))
    ticks: list[float] = []
    limits = dict(stop_when=lambda: False)
    if sample_interval is not None:
        limits.update(sample_interval=sample_interval,
                      on_sample=lambda: ticks.append(clock.now))
    if stop_after is not None:
        deadline = clock.now + stop_after
        limits["stop_when"] = lambda: clock.now > deadline
    if reference:
        rows, health, out_of_space = reference_fleet.run(
            stores, route, spec, arrival, seed, max_ops, queue_cap,
            op_timeout=op_timeout, **chaos, **limits)
        if not out_of_space:
            for row in rows:
                assert row["offered"] == (row["rejected"] + row["completed"]
                                          + row["failed"] + row["timeouts"])
    else:
        outcome = FleetPool(stores, route, spec, arrival=arrival,
                            seed=seed, max_ops=max_ops, queue_cap=queue_cap,
                            op_timeout=op_timeout, **chaos, **limits).run()
        rows = [dict(offered=row.offered, admitted=row.admitted,
                     rejected=row.rejected, completed=row.completed,
                     timeouts=row.timeouts, failed=row.failed,
                     retries=row.retries, lost_keys=row.lost_keys,
                     recovery_seconds=row.recovery_seconds,
                     downtime_seconds=row.downtime_seconds,
                     qdepth_sum=row.qdepth_sum, qdepth_max=depth,
                     responses=outcome.latencies.series(i).tolist())
                for i, (row, depth) in enumerate(zip(outcome.fleet,
                                                     outcome.qdepth_max))]
        health, out_of_space = outcome.health, outcome.out_of_space
    shards = [dict(smart=ssd.smart.as_dict(),
                   stats=store.stats.as_dict(),
                   disk=store.disk_bytes_used)
              for store, ssd in zip(stores, ssds)]
    state = dict(clock=clock.now, ticks=ticks, out_of_space=out_of_space,
                 rows=rows, health=health, shards=shards)
    # Read last (they move the clock): every live key with the value
    # version it ended on.
    state["contents"] = [store.scan(0, 1 << 40)[1] for store in stores]
    return state


@settings(deadline=None)
@given(fleet)
# Two LSM shards past saturation: rejects, deadline drops, every op
# kind, a sample every ~100 arrivals.
@example(dict(engine="lsm", nshards=2, router="hash", rate=50_000.0,
              queue_cap=6, fractions=(0.3, 0.1, 0.1), distribution="uniform",
              scan_length=7, max_ops=400, op_timeout=0.0002,
              sample_interval=0.002, stop_after=None, seed=17, **NO_KILL))
# Three B+Tree shards on contiguous ranges, a stop condition mid-run.
@example(dict(engine="btree", nshards=3, router="range", rate=5_000.0,
              queue_cap=8, fractions=(0.1, 0.0, 0.1), distribution="zipfian",
              scan_length=1, max_ops=400, op_timeout=None,
              sample_interval=0.01, stop_after=0.005, seed=3, **NO_KILL))
# One shard, queue cap 1: every arrival that finds the op in service
# is rejected.
@example(dict(engine="btree", nshards=1, router="hash", rate=50_000.0,
              queue_cap=1, fractions=(0.5, 0.3, 0.0), distribution="hotspot",
              scan_length=30, max_ops=200, op_timeout=None,
              sample_interval=None, stop_after=None, seed=5, **NO_KILL))
# An LSM shard killed mid-run: its queue drops, the next arrival starts
# the recovery, retries back off past the stop and fail there.
@example(dict(engine="lsm", nshards=2, router="hash", rate=50_000.0,
              queue_cap=4, fractions=(0.3, 0.0, 0.1), distribution="uniform",
              scan_length=5, max_ops=400, op_timeout=None,
              sample_interval=None, stop_after=0.005, kill_at=0.002,
              kill_shard=1, retry_limit=4, retry_backoff=0.004, seed=11))
# A kill that loses WAL-tail keys, a retry admitted after the recovery,
# and degraded service until a queue's worth of completions.
@example(dict(engine="lsm", nshards=2, router="range", rate=5_000.0,
              queue_cap=3, fractions=(0.3, 0.0, 0.0), distribution="uniform",
              scan_length=5, max_ops=400, op_timeout=0.02,
              sample_interval=0.01, stop_after=None, kill_at=0.0005,
              kill_shard=0, retry_limit=2, retry_backoff=0.001, seed=23))
# No retries: every op that meets the dead shard fails on the spot.
@example(dict(engine="btree", nshards=3, router="hash", rate=500_000.0,
              queue_cap=2, fractions=(0.5, 0.0, 0.0), distribution="zipfian",
              scan_length=1, max_ops=300, op_timeout=None,
              sample_interval=None, stop_after=None, kill_at=0.0005,
              kill_shard=2, retry_limit=0, retry_backoff=0.0001, seed=29))
def test_fleet_matches_the_reference(fleet):
    assert drive(False, **fleet) == drive(True, **fleet)


@pytest.mark.parametrize("router", ["hash", "range"])
@pytest.mark.parametrize("engine", ["lsm", "btree"])
def test_routed_load_that_runs_out_of_space(engine, router):
    """Two shards too small for the dataset: the routed load stops
    mid-chunk, inside one shard's segment, and counts what the per-op
    load completed — the segments before plus the partial one."""
    spec = WorkloadSpec(nkeys=3000, value_bytes=2000)  # < one LOAD_CHUNK
    done = []
    for reference in (True, False):
        _clock, stores, _ssds = make_shards(engine, 2, nblocks=32)
        route = make_router(router, 2, spec.nkeys)
        if reference:
            done.append(reference_fleet.load(stores, route, spec))
        else:
            load = load_sequential(stores, route, spec)
            assert load.out_of_space
            done.append(load.ops_issued)
    assert 0 < done[0] < spec.nkeys
    assert done[1] == done[0]
