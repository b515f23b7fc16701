"""The seven benchmarking pitfalls as an executable checklist.

The paper's primary contribution is a list of pitfalls and guidelines
for benchmarking persistent tree structures on flash SSDs.  This
module encodes them: describe an evaluation with
:class:`EvaluationPlan` and :func:`check_plan` reports which pitfalls
it falls into, each with the paper's guideline text.

This is what a reviewer (or CI gate) can run against a benchmark
configuration before trusting its numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

PITFALLS: dict[int, tuple[str, str]] = {
    1: (
        "Running short tests",
        "Distinguish steady-state from bursty performance. Run until "
        "application throughput, WA-A and WA-D are stable (CUSUM), or at "
        "least until cumulative host writes reach 3x the drive capacity; "
        "report averages over long windows.",
    ),
    2: (
        "Ignoring device write amplification (WA-D)",
        "Measure WA-D from SMART attributes and report it: it explains "
        "throughput changes that WA-A cannot, it is needed for end-to-end "
        "write amplification (WA-A x WA-D), and it quantifies "
        "flash-friendliness.",
    ),
    3: (
        "Ignoring the internal state of the SSD",
        "Control and report the initial drive state before every test. "
        "Precondition the drive (sequential fill + 2x random overwrite) for "
        "the most general results, or verify trimmed-state results match.",
    ),
    4: (
        "Testing with a single dataset size",
        "Benchmark with multiple dataset sizes (device utilizations): SSD "
        "performance depends on the amount of valid data, and comparisons "
        "can flip with utilization.",
    ),
    5: (
        "Not accounting for space amplification",
        "Report space amplification alongside performance: it determines "
        "storage cost and can make the slower system the cheaper one.",
    ),
    6: (
        "Overlooking SSD software over-provisioning",
        "Treat software over-provisioning as a first-class tuning knob: it "
        "trades capacity for performance and can reduce deployment cost.",
    ),
    7: (
        "Testing on a single SSD type",
        "Evaluate on multiple SSD classes (different vendors/technologies): "
        "both absolute results and system rankings depend on the device.",
    ),
}


@dataclass(frozen=True)
class EvaluationPlan:
    """A declarative description of a planned (or published) evaluation."""

    # Pitfall 1
    run_until_host_writes_capacity_multiple: float = 0.0
    uses_steady_state_detection: bool = False
    # Pitfall 2
    reports_wa_d: bool = False
    # Pitfall 3
    controls_drive_state: bool = False
    reports_drive_state: bool = False
    # Pitfall 4
    dataset_fractions: tuple[float, ...] = ()
    # Pitfall 5
    reports_space_amplification: bool = False
    # Pitfall 6
    considers_overprovisioning: bool = False
    # Pitfall 7
    ssd_types: tuple[str, ...] = ()
    notes: str = ""


@dataclass(frozen=True)
class PitfallViolation:
    """One pitfall an evaluation plan falls into."""

    pitfall_id: int
    title: str
    guideline: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Pitfall {self.pitfall_id} ({self.title}): {self.detail}"


def check_plan(plan: EvaluationPlan) -> list[PitfallViolation]:
    """Check a plan against all seven pitfalls; returns the violations."""
    violations: list[PitfallViolation] = []

    def add(pid: int, detail: str) -> None:
        title, guideline = PITFALLS[pid]
        violations.append(PitfallViolation(pid, title, guideline, detail))

    if (
        plan.run_until_host_writes_capacity_multiple < 3.0
        and not plan.uses_steady_state_detection
    ):
        add(1, "test ends before host writes reach 3x capacity and no "
               "steady-state detection is used")
    if not plan.reports_wa_d:
        add(2, "device-level write amplification is not measured/reported")
    if not (plan.controls_drive_state and plan.reports_drive_state):
        add(3, "the initial SSD state is not controlled and reported")
    if len(set(plan.dataset_fractions)) < 2:
        add(4, "only one dataset size is evaluated")
    if not plan.reports_space_amplification:
        add(5, "space amplification is not reported")
    if not plan.considers_overprovisioning:
        add(6, "software over-provisioning is not considered as a knob")
    if len(set(plan.ssd_types)) < 2:
        add(7, "only one SSD type is used")
    return violations


def plan_from_specs(specs, notes: str = "") -> EvaluationPlan:
    """Derive the :class:`EvaluationPlan` a set of experiment specs implies.

    This is how a campaign audits *itself*: the grid of
    :class:`~repro.core.experiment.ExperimentSpec` cells it is about to
    run is reduced to the evaluation-methodology facts the seven
    pitfalls care about, and :func:`check_plan` reports what the
    campaign is missing (one dataset size, one SSD type, ...).

    The harness-level flags are always true because
    :func:`~repro.core.experiment.run_experiment` measures them
    unconditionally: WA-D and space amplification are sampled every
    window, the drive state is applied from the spec (controlled) and
    recorded in every result (reported), and steady-state summaries use
    CUSUM detection.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("cannot derive a plan from zero specs")
    return EvaluationPlan(
        run_until_host_writes_capacity_multiple=min(
            s.duration_capacity_writes for s in specs
        ),
        uses_steady_state_detection=True,
        reports_wa_d=True,
        controls_drive_state=True,
        reports_drive_state=True,
        dataset_fractions=tuple(sorted({s.dataset_fraction for s in specs})),
        reports_space_amplification=True,
        considers_overprovisioning=any(s.op_reserved_fraction > 0 for s in specs),
        ssd_types=tuple(sorted({s.ssd for s in specs})),
        notes=notes,
    )


def render_report(violations: list[PitfallViolation]) -> str:
    """Human-readable pitfall report."""
    if not violations:
        return "No pitfalls detected: the plan follows all seven guidelines."
    lines = [f"{len(violations)} pitfall(s) detected:"]
    for violation in violations:
        lines.append(f"  [{violation.pitfall_id}] {violation.title}")
        lines.append(f"      issue:     {violation.detail}")
        lines.append(f"      guideline: {violation.guideline}")
    return "\n".join(lines)
