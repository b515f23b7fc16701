"""End-to-end driver equivalence (DESIGN.md §6).

The full experiment pipeline — build stack, drive-state, sequential
load, measured phase with sampling — must produce the same samples,
clock and counters under the shipped batched drivers as under the
reference driver (one per-op KV call at a time,
``tests/workload/reference_driver.py``) for both engines.  This is the
figure-level guarantee: every paper figure is derived from these
records, so equality here means the batching layer cannot change any
reported number.  The same three specs are pinned as literals in
``tests/core/test_golden_fingerprints.py`` (``pipeline-*``).
"""

from __future__ import annotations

import pytest

from repro.core.experiment import Engine, ExperimentSpec
from repro.flash.state import DriveState
from repro.units import MIB
from tests.workload.reference_experiment import assert_matches_reference


@pytest.mark.parametrize("engine", [Engine.LSM, Engine.BTREE])
def test_experiment_records_identical(engine):
    result = assert_matches_reference(ExperimentSpec(
        engine=engine,
        capacity_bytes=32 * MIB,
        duration_capacity_writes=1.2,
        sample_interval=0.2,
        read_fraction=0.2,
        delete_fraction=0.05,
    ))
    assert result.ops_issued > 0
    assert result.samples, "the run must have produced a time series"


def test_preconditioned_lsm_identical():
    # Preconditioning exercises the drive-state writer plus GC-heavy
    # steady state — the regime where stall penalties (the float
    # recurrence the batched fast path replays) actually bite.
    assert_matches_reference(ExperimentSpec(
        engine=Engine.LSM,
        capacity_bytes=32 * MIB,
        drive_state=DriveState.PRECONDITIONED,
        duration_capacity_writes=1.0,
        sample_interval=0.2,
    ))
