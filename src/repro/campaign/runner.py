"""Campaign execution: deterministic cells on a worker pool.

Every cell is an isolated simulation fully determined by its spec, so
cells are embarrassingly parallel.  A cell's one form is its record
(``ExperimentResult.to_dict()``) keyed by ``ExperimentSpec.
stable_hash()``; :func:`cell_records` simulates the cells it has no
record for on one worker per CPU this process may use, for
:func:`run_campaign` and the figures' ``run_cells``.  A campaign
appends each record to a JSONL store in grid order on any number of
CPUs; ``resume=True`` skips those, and interrupt plus resume is
byte-identical to an uninterrupted run (tested).
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
from repro.errors import CampaignError, ConfigError


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


def _execute_cell(spec_dict: dict, trace_out: str | None = None) -> dict:
    """Worker entry point: the record of the serialized spec (the
    contract the JSONL store uses).  ``trace_out`` also writes the
    cell's Chrome trace to ``<trace_out>-<cellhash>.json``; tracing
    never changes simulated results, it only fills ``attribution``.
    """
    spec = ExperimentSpec.from_dict(spec_dict)
    if trace_out is None:
        return run_experiment(spec).to_dict()
    from repro.obs import Tracer, write_chrome_trace

    tracer = Tracer()
    result = run_experiment(spec, tracer=tracer)
    write_chrome_trace(tracer.events(), f"{trace_out}-{spec.stable_hash()}.json",
                       attribution=result.attribution)
    return result.to_dict()


def run_campaign(
    campaign: CampaignSpec,
    out: str | Path | None = None,
    resume: bool = False,
    progress: Callable[[dict], None] | None = None,
    trace_out: str | None = None,
) -> CampaignOutcome:
    """Run (or finish) a campaign; returns its records in grid order.

    ``out`` persists one JSONL record per completed cell as it
    finishes; ``resume=True`` first skips the cells that file holds
    (:meth:`CampaignStore.checked_records`).  Without ``resume``, an
    ``out`` file that already holds completed cells is refused rather
    than clobbered.  ``progress`` sees each fresh record; ``trace_out``
    traces every fresh cell (see :func:`_execute_cell`).
    """
    if resume and out is None:
        raise ConfigError("resume requires an output path")
    start = time.monotonic()
    cells = campaign.cells()
    store = CampaignStore(out) if out is not None else None
    known: dict[str, dict] = {}
    if store is not None:
        if resume:
            known = dict(store.checked_records())
        elif store.load():
            # Refuse to clobber completed work: hours of finished cells
            # must not vanish because --resume was forgotten.
            raise ConfigError(
                f"{store.path} already holds completed cells; pass "
                "resume=True to skip them or delete the file to start over"
            )
    skipped = sum(spec.stable_hash() in known for spec in cells)

    def finish(record: dict) -> None:
        record["campaign"] = campaign.name
        if store is not None:
            store.append(record)
        if progress is not None:
            progress(record)

    try:
        records = cell_records(cells, known, finish, trace_out)
    except CampaignError as error:
        kept = "nothing was kept (no output file)" if store is None else \
            f"finished cells are in {store.path}; re-run with --resume"
        raise CampaignError(f"{error}; {kept}") from None
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


def cell_records(specs: list[ExperimentSpec], known: dict[str, dict],
                 finish: Callable[[dict], None],
                 trace_out: str | None = None) -> list[dict]:
    """The record of each of *specs*, in order.

    *known* holds the records at hand by cell hash.  The distinct cells
    it lacks are simulated on one worker per CPU this process may use,
    capped at their number (one CPU or one cell runs inline); each new
    record goes to ``finish(record)`` in spec order, whatever the number
    of workers, then into *known*.
    A worker that dies ends the call in one :class:`CampaignError`
    naming the unfinished cells; the finished ones are in *known*.
    """
    missing: dict[str, ExperimentSpec] = {}
    for spec in specs:
        cell = spec.stable_hash()
        if cell not in known:
            missing.setdefault(cell, spec)

    def done(record: dict) -> None:
        finish(record)
        known[record["cell"]] = record

    workers = min(len(os.sched_getaffinity(0)), len(missing))
    if workers <= 1:
        for spec in missing.values():
            done(_execute_cell(spec.to_dict(), trace_out))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_cell, spec.to_dict(), trace_out)
                       for spec in missing.values()]
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
    lost = [spec.name for cell, spec in missing.items() if cell not in known]
    if lost:
        raise CampaignError(f"a worker died with {len(lost)} of {len(missing)} "
                            f"cells unfinished ({', '.join(lost)})")
    return [known[spec.stable_hash()] for spec in specs]
