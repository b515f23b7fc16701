"""``repro profile``: cProfile one fig-2 cell and rank its hot spots.

A cell is the paper's fig-2 experiment (sequential load + measured
phase until host writes reach a capacity multiple, §3.2) with one of
the named :data:`WORKLOADS` mixes, run inline, on the client pool,
sharded or open-loop — always through
:func:`~repro.core.experiment.run_experiment`, the one route from a
spec to a running stack.  A profile ranks; whether a change paid off
is decided by the perf ledger (``benchmarks/ledger/README.md``, "How
to make a claim"), never by a wall read off a profiled run.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time

from repro.core.experiment import Engine, run_experiment
from repro.core.figures import SCALES, spec_for

#: Named workload shapes ``repro profile`` offers (spec overrides on
#: top of the fig-2 update experiment).
WORKLOADS: dict[str, dict] = {
    "update": {},
    "scanmix": {"read_fraction": 0.25, "scan_fraction": 0.25},
    "readonly": {"read_fraction": 1.0},
}


def profile_case(engine: Engine, scale_name: str, workload_name: str = "update",
                 nclients: int = 1, top: int = 30,
                 sort: str = "cumulative", nshards: int = 1,
                 arrival: str | None = None, arrival_rate: float = 0.0,
                 queue_cap: int = 0) -> str:
    """cProfile one fig-2 cell; returns the rendered top-N table.

    ``sort`` is any :mod:`pstats` sort key (``cumulative`` ranks call
    trees, ``tottime`` ranks function bodies).  Instrumentation
    inflates this codebase's per-call costs roughly 2-5x, so the
    header's wall is not comparable with anything unprofiled.

    ``nclients > 1`` profiles the client pool, ``nshards > 1`` the
    fleet path (router + per-shard stacks), and an ``arrival`` process
    the open-loop fleet driver at ``arrival_rate`` ops/s, which
    replaces the closed-loop clients (``queue_cap`` 0 keeps the spec
    default).
    """
    overrides = dict(WORKLOADS[workload_name], nshards=nshards)
    name = f"fig2-{workload_name}"
    if arrival is None:
        overrides["nclients"] = nclients
        if nclients > 1:
            name += f"-pool{nclients}"
    else:
        overrides.update(arrival=arrival, arrival_rate=arrival_rate)
        if queue_cap:
            overrides["queue_cap"] = queue_cap
    fleet = nshards > 1 or arrival is not None
    if fleet:
        name += f"-shards{nshards}" + (f"-{arrival}" if arrival else "")
    spec = spec_for(SCALES[scale_name], engine, **overrides)
    profiler = cProfile.Profile()
    wall_start = time.perf_counter()
    profiler.enable()
    result = run_experiment(spec)
    profiler.disable()
    wall = time.perf_counter() - wall_start
    stream = io.StringIO()
    pstats.Stats(profiler, stream=stream).sort_stats(sort).print_stats(top)
    return (
        f"profile of {name}-{engine.value} (scale {scale_name}"
        f"{', fleet path' if fleet else ''})\n"
        f"profiled run (cProfile overhead INCLUDED — a profile ranks, the "
        f"perf ledger decides): total {wall:.3f}s, "
        f"{result.ops_issued:,} ops issued\n" + stream.getvalue()
    )
