"""Core benchmarking methodology: the paper's contribution as a library.

* :mod:`~repro.core.metrics` — the five §3.3 metrics.
* :mod:`~repro.core.steady_state` — CUSUM detection + 3x-capacity rule.
* :mod:`~repro.core.stack` — spec → assembled stack; its counter snapshot.
* :mod:`~repro.core.experiment` — full benchmark orchestration.
* :mod:`~repro.core.figures` — every paper figure as a function.
* :mod:`~repro.core.cost` — storage-cost modeling (Figs 6c, 8).
* :mod:`~repro.core.pitfalls` — the seven pitfalls as a checklist.
"""

from repro.core.clock import VirtualClock
from repro.core.cost import CostOption, compare_costs, drives_needed, render_heatmap
from repro.core.experiment import (
    Engine,
    ExperimentResult,
    ExperimentSpec,
    build_stack,
    run_experiment,
)
from repro.core.metrics import MetricsCollector, Sample, end_to_end_write_amplification
from repro.core.pitfalls import (
    PITFALLS,
    EvaluationPlan,
    PitfallViolation,
    check_plan,
    compliant_plan,
    render_report,
)
from repro.core.steady_state import (
    SteadySummary,
    cusum,
    steady_start_index,
    summarize,
    three_times_capacity_rule,
)

__all__ = [
    "VirtualClock",
    "Engine",
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "build_stack",
    "MetricsCollector",
    "Sample",
    "end_to_end_write_amplification",
    "SteadySummary",
    "cusum",
    "steady_start_index",
    "summarize",
    "three_times_capacity_rule",
    "CostOption",
    "compare_costs",
    "drives_needed",
    "render_heatmap",
    "PITFALLS",
    "EvaluationPlan",
    "PitfallViolation",
    "check_plan",
    "compliant_plan",
    "render_report",
]
