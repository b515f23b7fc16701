"""No spec hangs or dies three layers down (ROADMAP 2(c), first half).

Hypothesis draws whole :class:`ExperimentSpec`\\ s at 8–24 MiB — engine,
the op mix, key distribution, seed, value size, engine / SSD option
names, GC policy and allocation strategy names, an op budget, a
reserved range, 1–4 clients, 1–2 shards and an optional Poisson
arrival process — and every draw has exactly two acceptable endings:
a ``ConfigError`` (from the spec itself, before anything is loaded, or
from the stack it describes) or a result on which the conservation
laws of ``tests/core/test_conservation.py`` hold at every sample and
at the end, its op budget spent unless the device filled up.  A
wall-clock alarm turns a hang into a failure.
"""

from __future__ import annotations

import signal

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.experiment import Engine, ExperimentSpec, run_experiment
from repro.errors import ConfigError
from repro.flash.gc import POLICIES
from repro.fs.allocator import STRATEGIES
from repro.units import KIB, MIB
from repro.workload.keys import DISTRIBUTIONS
from tests.core.test_conservation import check_run, watching

#: Wall-clock seconds one example may take before it counts as a hang
#: (a typical draw runs in well under 0.2 s).
EXAMPLE_SECONDS = 20

#: (read, scan, delete) fractions; the last one sums past 1.
MIXES = [(0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (1.0, 0.0, 0.0),
         (0.25, 0.25, 0.0), (0.5, 0.5, 0.0), (0.2, 0.1, 0.1),
         (0.0, 0.0, 0.3), (0.6, 0.3, 0.2)]

#: One bad value per draw at most: each used to get past the spec and
#: end in a numpy ``ValueError``, an ``IndexError`` in a leaf split, a
#: ``TypeError`` from a config dataclass, a worker, or an empty run.
DEFECTS = [
    dict(seed=-1),
    dict(value_bytes=40_000),  # B+Tree: no leaf holds it; LSM: fine
    dict(max_ops=0),
    dict(gc_policy="gredy"),
    dict(fs_strategy="next_fit"),
    dict(engine_options={"no_such_option": 1}),
    dict(ssd_options={"chanels": 4}),
]


@st.composite
def spec_fields(draw) -> dict:
    engine = draw(st.sampled_from(list(Engine)))
    read, scan, delete = draw(st.sampled_from(MIXES))
    fields = dict(
        engine=engine,
        capacity_bytes=draw(st.sampled_from([8, 16, 24])) * MIB,
        dataset_fraction=draw(st.sampled_from([0.1, 0.3, 0.5])),
        value_bytes=draw(st.integers(100, 32_744)),
        read_fraction=read,
        scan_fraction=scan,
        delete_fraction=delete,
        scan_length=draw(st.sampled_from([1, 20, 100])),
        distribution=draw(st.sampled_from(sorted(DISTRIBUTIONS))),
        seed=draw(st.integers(0, 2**63)),
        max_ops=draw(st.integers(1, 2000)),
        gc_policy=draw(st.sampled_from(list(POLICIES))),
        fs_strategy=draw(st.sampled_from(STRATEGIES)),
        engine_options=draw(st.sampled_from(
            [{}, {"memtable_bytes": 512 * KIB} if engine is Engine.LSM
             else {"cache_bytes": 1 * MIB}])),
        ssd_options=draw(st.sampled_from([{}, {"channels": 4}])),
        op_reserved_fraction=draw(st.sampled_from([0.0, 0.25, 0.6])),
        nshards=draw(st.integers(1, 2)),
        duration_capacity_writes=0.5,
        sample_interval=0.02,
    )
    if draw(st.booleans()):
        fields.update(arrival="poisson",
                      arrival_rate=draw(st.sampled_from([2000.0, 8000.0])))
    else:
        fields["nclients"] = draw(st.integers(1, 4))
    fields.update(draw(st.one_of(st.just({}), st.sampled_from(DEFECTS))))
    # Keep the load small: at most 20 000 keys.
    nkeys = (fields["capacity_bytes"] * fields["dataset_fraction"]
             / (16 + fields["value_bytes"]))
    assume(nkeys <= 20_000)
    return fields


def _hang(signum, frame):
    raise TimeoutError(f"one spec ran past {EXAMPLE_SECONDS} s")


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(fields=spec_fields())
def test_every_spec_is_refused_or_runs_to_a_lawful_end(fields):
    previous = signal.signal(signal.SIGALRM, _hang)
    signal.alarm(EXAMPLE_SECONDS)
    try:
        with watching() as seen:
            try:
                result = run_experiment(ExperimentSpec(**fields))
            except ConfigError:
                return
            check_run(result, seen)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    # An accepted op budget is spent unless the device fills up.
    assert result.out_of_space or 0 < result.ops_issued <= fields["max_ops"]

