"""The shipped drivers in lockstep with the reference driver (DESIGN.md §6.1).

``run_workload`` and ``ClientPool`` plan RNG windows, cut them into
same-kind runs and issue those through the engines' batch API under an
``until`` bound; ``reference_driver.py`` issues one per-op KV call at a
time and shares no code with them.  Over drawn workloads — op mix,
distribution, budgets that end mid-window, sampling intervals down to
a few ops, stop conditions, one to five clients — both must leave the
same store behind: op counts, clock, SMART, engine counters, every
sample time, the value version each key ended on and, for the pool,
every latency of every client.

CI also runs this file under the derandomized ``ci`` hypothesis
profile (``tests/conftest.py``): ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.experiment import Engine, ExperimentSpec
from repro.sim.clients import ClientPool
from repro.units import MIB
from repro.workload.keys import DISTRIBUTIONS
from repro.workload.runner import load_sequential, run_workload
from repro.workload.spec import WorkloadSpec
from tests.workload import reference_driver
from tests.workload.reference_experiment import assert_matches_reference
from tests.workload.test_batched_runner import make_store, state_fingerprint

fraction = st.sampled_from([0.0, 0.1, 0.3, 0.5])
workload = st.fixed_dictionaries(dict(
    engine=st.sampled_from(["lsm", "btree"]),
    fractions=st.tuples(fraction, fraction, fraction).filter(
        lambda f: sum(f) <= 1.0),  # read, scan, delete; the rest update
    distribution=st.sampled_from(sorted(DISTRIBUTIONS)),
    scan_length=st.integers(1, 30),
    max_ops=st.integers(1, 700),
    # 700 ops take 0.015 (LSM, 5 clients) to 0.25 (B+Tree, inline)
    # virtual seconds on the tiny device.
    sample_interval=st.sampled_from([None, 0.002, 0.01, 0.05]),
    stop_after=st.sampled_from([None, 0.005, 0.03]),  # seconds into the run
    seed=st.integers(0, 2**32 - 1),
    # None: the inline runner; otherwise a pool of that many clients.
    nclients=st.sampled_from([None, 1, 2, 5]),
))


def drive(reference: bool, engine, fractions, distribution, scan_length,
          max_ops, sample_interval, stop_after, seed, nclients):
    """Load and run one drawn workload; everything observable after."""
    read, scan, delete = fractions
    spec = WorkloadSpec(nkeys=150, value_bytes=120, read_fraction=read,
                        scan_fraction=scan, delete_fraction=delete,
                        scan_length=scan_length, distribution=distribution)
    store, ssd = make_store(engine)
    (reference_driver.load if reference else load_sequential)(store, spec)
    ticks: list[float] = []
    limits = dict(max_ops=max_ops)
    if sample_interval is not None:
        limits.update(sample_interval=sample_interval,
                      on_sample=lambda: ticks.append(store.clock.now))
    if stop_after is not None:
        deadline = store.clock.now + stop_after
        limits["stop_when"] = lambda: store.clock.now > deadline
    if nclients is None:
        run = reference_driver.run if reference else run_workload
        outcome = run(store, spec, seed=seed, **limits)
        per_client = None
    elif reference:
        outcome = reference_driver.run_pool(store, spec, nclients, seed=seed,
                                            ssd=ssd, **limits)
        per_client = (outcome.per_client_ops, outcome.latencies)
    else:
        outcome = ClientPool(store, spec, nclients, seed=seed, ssd=ssd,
                             **limits).run()
        per_client = (outcome.per_client_ops,
                      [outcome.latencies.series(i).tolist()
                       for i in range(nclients)])
    return (outcome.ops_issued, outcome.out_of_space, per_client,
            state_fingerprint(store, ssd, ticks))


@settings(deadline=None)
@given(workload)
# Every op kind, a budget that ends mid-window, a sample every few ops.
@example(dict(engine="lsm", fractions=(0.3, 0.1, 0.1), distribution="zipfian",
              scan_length=7, max_ops=333, sample_interval=0.002,
              stop_after=None, seed=17, nclients=None))
# The stop condition turns true between two checks of a 5-client pool.
@example(dict(engine="btree", fractions=(0.1, 0.0, 0.1), distribution="uniform",
              scan_length=1, max_ops=700, sample_interval=0.01,
              stop_after=0.005, seed=3, nclients=5))
# A one-client pool: no scheduler attached to the engine, latencies kept.
@example(dict(engine="lsm", fractions=(0.0, 0.5, 0.0), distribution="hotspot",
              scan_length=30, max_ops=65, sample_interval=None,
              stop_after=None, seed=5, nclients=1))
def test_shipped_drivers_match_the_reference(workload):
    assert drive(False, **workload) == drive(True, **workload)


@pytest.mark.parametrize("mix", [
    dict(engine=Engine.BTREE, read_fraction=1.0),
    dict(engine=Engine.LSM, read_fraction=0.5, scan_fraction=0.5,
         scan_length=10, nclients=2),
])
def test_write_free_spec_runs_the_reference_op_budget(mix):
    """No ``max_ops`` and no op that writes: the host-write target can
    never be reached, so the experiment ends on an op budget — the one
    ``reference_experiment`` states for itself, sample for sample."""
    spec = ExperimentSpec(capacity_bytes=24 * MIB, dataset_fraction=0.3,
                          duration_capacity_writes=0.1, sample_interval=0.02,
                          **mix)
    assert spec.max_ops is None
    result = assert_matches_reference(spec)
    assert result.ops_issued == int(0.1 * 24 * MIB) // 4000
    assert result.samples
