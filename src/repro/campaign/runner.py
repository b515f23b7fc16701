"""Campaign execution: a worker pool over deterministic cells.

Every cell of a campaign grid is an isolated simulation — its own
virtual clock, device, filesystem and store, fully determined by its
spec — so cells are embarrassingly parallel.  ``workers > 1`` runs
them on a :class:`~concurrent.futures.ProcessPoolExecutor`: the first
wall-clock speedup this repository can honestly claim, since inside a
cell the "time" is virtual and only the grid is real work.

Completed cells are appended to a JSONL store keyed by the cell's
stable spec hash.  With ``resume=True`` an interrupted campaign skips
finished cells; because cells are deterministic and records are
serialized canonically, the merged output of interrupt-plus-resume is
byte-identical to an uninterrupted run (tested).
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CampaignStore, canonical_line
from repro.core.experiment import ExperimentResult, ExperimentSpec, run_experiment
from repro.core.pitfalls import EvaluationPlan, PitfallViolation, check_plan
from repro.errors import CampaignError, ConfigError


@dataclass
class CellOutcome:
    """One grid cell after a campaign pass."""

    index: int  # position in grid order
    spec: ExperimentSpec
    record: dict  # canonical serialized result
    result: ExperimentResult | None  # live object; None if loaded from disk
    from_cache: bool = False

    @property
    def cell_hash(self) -> str:
        """The stable spec hash keying this cell in the store."""
        return self.record["cell"]


@dataclass
class CampaignOutcome:
    """Everything one campaign pass produced, in grid order."""

    campaign: CampaignSpec
    cells: list[CellOutcome]
    ran: int
    skipped: int
    wall_seconds: float
    plan: EvaluationPlan
    violations: list[PitfallViolation] = field(default_factory=list)

    @property
    def records(self) -> list[dict]:
        """Cell records in grid order (the canonical merged view)."""
        return [cell.record for cell in self.cells]

    def results(self) -> dict[tuple, ExperimentResult]:
        """Live results keyed by axis coordinates (fresh cells only)."""
        return {
            self.campaign.key_for(cell.spec): cell.result
            for cell in self.cells
            if cell.result is not None
        }

    def to_jsonl(self) -> str:
        """The campaign's merged results as canonical JSONL text.

        Grid-ordered and byte-deterministic: two passes over the same
        grid — interrupted-then-resumed or not — produce identical
        text.
        """
        return "\n".join(canonical_line(record) for record in self.records) + "\n"


def _execute_cell(spec_dict: dict, trace_out: str | None = None) -> ExperimentResult:
    """Worker entry point: rebuild the spec, run the cell.

    Takes the serialized spec (not the dataclass) so the parent/worker
    contract is the same one the JSONL store uses.  ``trace_out``
    attaches a flight recorder and writes one Chrome trace per cell to
    ``<trace_out>-<cellhash>.json``; tracing never changes simulated
    results, so traced and untraced campaigns produce identical
    records apart from the additive ``attribution`` field.
    """
    spec = ExperimentSpec.from_dict(spec_dict)
    if trace_out is None:
        return run_experiment(spec)
    from repro.obs import Tracer, write_chrome_trace

    tracer = Tracer()
    result = run_experiment(spec, tracer=tracer)
    write_chrome_trace(tracer.events(), f"{trace_out}-{spec.stable_hash()}.json",
                       attribution=result.attribution)
    return result


def run_campaign(
    campaign: CampaignSpec,
    workers: int = 1,
    out: str | Path | None = None,
    resume: bool = False,
    progress: Callable[[CellOutcome], None] | None = None,
    trace_out: str | None = None,
) -> CampaignOutcome:
    """Run (or finish) a campaign; returns grid-ordered outcomes.

    ``out`` persists one JSONL record per completed cell as it
    finishes; ``resume=True`` first loads that file and skips cells
    whose spec hash is already recorded.  Without ``resume``, an
    ``out`` file that already holds completed cells is refused rather
    than clobbered.  ``trace_out`` traces every fresh cell (one Chrome
    trace file per cell, see :func:`_execute_cell`).
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    if resume and out is None:
        raise ConfigError("resume requires an output path")
    start = time.monotonic()
    cells = campaign.cells()
    store = CampaignStore(out) if out is not None else None
    cached: dict[str, dict] = {}
    if store is not None:
        if resume:
            cached = store.load()
        elif store.load():
            # Refuse to clobber completed work: hours of finished cells
            # must not vanish because --resume was forgotten.
            raise ConfigError(
                f"{store.path} already holds completed cells; pass "
                "resume=True to skip them or delete the file to start over"
            )

    outcomes: dict[int, CellOutcome] = {}
    pending: list[tuple[int, ExperimentSpec, str]] = []
    for index, spec in enumerate(cells):
        digest = spec.stable_hash()
        if digest in cached:
            outcomes[index] = CellOutcome(
                index=index, spec=spec, record=cached[digest],
                result=None, from_cache=True,
            )
        else:
            pending.append((index, spec, digest))

    def finish(index: int, spec: ExperimentSpec, result: ExperimentResult) -> None:
        record = result.to_dict()
        record["campaign"] = campaign.name
        if store is not None:
            store.append(record)
        outcome = CellOutcome(index=index, spec=spec, record=record, result=result)
        outcomes[index] = outcome
        if progress is not None:
            progress(outcome)

    if workers == 1 or len(pending) <= 1:
        for index, spec, _digest in pending:
            finish(index, spec, _execute_cell(spec.to_dict(), trace_out))
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
            futures = {
                pool.submit(_execute_cell, spec.to_dict(), trace_out):
                    (index, spec)
                for index, spec, _digest in pending
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in done:
                    index, spec = futures[future]
                    try:
                        finish(index, spec, future.result())
                    except BrokenProcessPool:
                        # A worker died: its cell and those still queued
                        # are lost, the ones that finished are kept.
                        continue
        lost = [spec.name for index, spec, _digest in pending
                if index not in outcomes]
        if lost:
            kept = "nothing was kept (no output file)" if store is None else \
                f"finished cells are in {store.path}; re-run with --resume"
            raise CampaignError(
                f"a campaign worker died with {len(lost)} of {len(cells)} "
                f"cells unfinished ({', '.join(lost)}); {kept}")

    ordered = [outcomes[index] for index in range(len(cells))]
    plan = campaign.plan()
    return CampaignOutcome(
        campaign=campaign,
        cells=ordered,
        ran=len(pending),
        skipped=len(cells) - len(pending),
        wall_seconds=time.monotonic() - start,
        plan=plan,
        violations=check_plan(plan),
    )
