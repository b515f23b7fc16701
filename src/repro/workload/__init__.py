"""Workload generation: specs, key choosers, the batch planner and
the load phase."""

from repro.workload.keys import (
    HotspotKeys,
    KeyChooser,
    SequentialKeys,
    UniformKeys,
    ZipfianKeys,
    make_chooser,
)
from repro.workload.plan import BatchPlanner, EventAwareUntil, OpRun
from repro.workload.runner import RunOutcome, load_sequential
from repro.workload.spec import WorkloadSpec

__all__ = [
    "WorkloadSpec",
    "RunOutcome",
    "load_sequential",
    "BatchPlanner",
    "OpRun",
    "EventAwareUntil",
    "KeyChooser",
    "UniformKeys",
    "SequentialKeys",
    "ZipfianKeys",
    "HotspotKeys",
    "make_chooser",
]
