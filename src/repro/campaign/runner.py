"""Campaign execution: deterministic cells on a worker pool.

Every cell is an isolated simulation fully determined by its spec, so
cells are embarrassingly parallel.  A cell's one form is its record
(``ExperimentResult.to_dict()``) keyed by ``ExperimentSpec.
stable_hash()``, and a :class:`~repro.campaign.store.CampaignStore`
holds records.  :func:`run_cell` turns one spec into its record,
traced or not, for ``repro run`` and for the workers of
:func:`cell_records`, which simulates the cells a store does not hold
yet on one worker per CPU this process may use, for
:func:`run_campaign` and the figures' ``run_cells``.  Reuse is the
rule: re-running a campaign on its output file runs only the cells the
file lacks and appends them in grid order on any number of CPUs, so an
interrupted run plus a re-run is byte-identical to an uninterrupted
run (tested).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.pitfalls import EvaluationPlan, PitfallViolation, check_plan
from repro.errors import CampaignError
from repro.obs import Tracer, write_chrome_trace


@dataclass
class CampaignOutcome:
    """Everything one campaign pass produced."""

    campaign: CampaignSpec
    records: list[dict]  # one per cell, grid order (the canonical merged view)
    ran: int
    skipped: int
    wall_seconds: float
    plan: EvaluationPlan
    violations: list[PitfallViolation] = field(default_factory=list)


def run_cell(spec: ExperimentSpec, trace_path: str | None = None) -> dict:
    """The record of *spec*: the one route from a spec to its record,
    for ``repro run``, campaigns and the figures (and what a worker
    runs).  ``trace_path`` attaches the flight recorder and writes the
    cell's Chrome trace there; the record then also says what the ring
    kept, ``trace: {events, dropped}``.  Tracing never changes simulated
    results, it only fills ``attribution`` and ``trace``.
    """
    if trace_path is None:
        return run_experiment(spec).to_dict()
    tracer = Tracer()
    result = run_experiment(spec, tracer=tracer)
    events = write_chrome_trace(tracer.events(), trace_path,
                                attribution=result.attribution)
    record = result.to_dict()
    record["trace"] = {"events": events, "dropped": tracer.dropped}
    return record


def run_campaign(
    campaign: CampaignSpec,
    out: str | Path | None = None,
    progress: Callable[[dict], None] | None = None,
    trace_out: str | None = None,
) -> CampaignOutcome:
    """Run (or finish) a campaign; returns its records in grid order.

    ``out`` is the JSONL store (memory without it): the cells it
    already holds are reused (:meth:`CampaignStore.checked` refuses a
    stale file), and each new record is appended to it in grid order.
    ``progress`` sees each new record; ``trace_out`` traces every new
    cell to ``<trace_out>-<cell>.json`` (see :func:`run_cell`).
    """
    start = time.monotonic()
    cells = campaign.cells()
    store = CampaignStore(out).checked()
    skipped = sum(spec.stable_hash() in store.cells for spec in cells)

    def finish(record: dict) -> None:
        record["campaign"] = campaign.name
        if progress is not None:
            progress(record)

    records = cell_records(cells, store, finish, trace_out)
    plan = campaign.plan()
    return CampaignOutcome(
        campaign=campaign,
        records=records,
        ran=len(cells) - skipped,
        skipped=skipped,
        wall_seconds=time.monotonic() - start,
        plan=plan,
        violations=check_plan(plan),
    )


def cell_records(specs: list[ExperimentSpec], store: CampaignStore,
                 finish: Callable[[dict], None] | None = None,
                 trace_out: str | None = None) -> list[dict]:
    """The record of each of *specs*, in order.

    The distinct cells *store* does not hold are simulated on one
    worker per CPU this process may use, capped at their number (one
    CPU or one cell runs inline); each new record goes to
    ``finish(record)``, which may add keys to it, and then into *store*,
    in spec order whatever the number of workers.  ``trace_out``
    traces each of them to ``<trace_out>-<cell>.json``.
    A worker that dies ends the call in one :class:`CampaignError`
    naming the unfinished cells, and the store's file if it has one:
    the finished cells are in *store*, so re-running the same command
    runs only the rest.
    """
    missing: dict[str, ExperimentSpec] = {}
    for spec in specs:
        cell = spec.stable_hash()
        if cell not in store.cells:
            missing.setdefault(cell, spec)

    def done(record: dict) -> None:
        if finish is not None:
            finish(record)
        store.append(record)

    def trace_path(cell: str) -> str | None:
        return None if trace_out is None else f"{trace_out}-{cell}.json"

    workers = min(len(os.sched_getaffinity(0)), len(missing))
    if workers <= 1:
        for cell, spec in missing.items():
            done(run_cell(spec, trace_path(cell)))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_cell, spec, trace_path(cell))
                       for cell, spec in missing.items()]
            # In spec order, as inline: a record that completes early
            # waits for the cells before it.
            for future in futures:
                try:
                    record = future.result()
                except BrokenProcessPool:
                    # A worker died: its cell and those still queued are
                    # lost, the ones that finished are kept.
                    continue
                done(record)
    lost = [spec.name for cell, spec in missing.items() if cell not in store.cells]
    if lost:
        kept = "" if store.path is None else \
            f"; finished cells are in {store.path}, re-run the same command"
        raise CampaignError(f"a worker died with {len(lost)} of {len(missing)} "
                            f"cells unfinished ({', '.join(lost)}){kept}")
    return [store.cells[spec.stable_hash()] for spec in specs]
