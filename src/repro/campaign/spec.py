"""Declarative experiment grids (the campaign model).

A compliant evaluation of tree structures on flash is never a single
run: §4 of the paper sweeps engines x SSD types x drive states x
dataset sizes x over-provisioning levels.  A :class:`CampaignSpec`
captures that shape declaratively — one base
:class:`~repro.core.experiment.ExperimentSpec` plus named axes — and
expands it into the cross product of fully-specified cells.  Because
each cell is an isolated deterministic simulation, cells can run on a
worker pool (see :mod:`repro.campaign.runner`), and because each cell
has a stable content hash, an interrupted campaign resumes by skipping
finished cells.

The grid also audits itself: :meth:`CampaignSpec.plan` reduces the
cells to an :class:`~repro.core.pitfalls.EvaluationPlan`, so
:func:`~repro.core.pitfalls.check_plan` reports which of the paper's
seven pitfalls the campaign still falls into.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Any, Mapping, Sequence

from repro.core.experiment import Engine, ExperimentSpec
from repro.core.pitfalls import EvaluationPlan, plan_from_specs
from repro.errors import ConfigError
from repro.units import MIB

_SPEC_FIELDS = {f.name for f in fields(ExperimentSpec)}


def _axis_value(value: Any) -> Any:
    """Normalize an axis value for keys and cell names (enums -> str)."""
    return value.value if isinstance(value, Enum) else value


def _render(value: Any) -> str:
    value = _axis_value(value)
    if value is None:
        return "none"
    if isinstance(value, Mapping):
        # Fault plans as axis values: compact, comma-free (the cell
        # label joins axes with commas).
        return "+".join(f"{k}{_render(v)}" for k, v in value.items())
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


@dataclass(frozen=True)
class CampaignSpec:
    """A named grid: base experiment + axes to cross-product over."""

    name: str
    base: ExperimentSpec
    axes: tuple[tuple[str, tuple], ...]  # ordered (spec field, values)

    def __init__(self, name: str, base: ExperimentSpec,
                 axes: Mapping[str, Sequence] | Sequence[tuple[str, Sequence]]):
        items = list(axes.items()) if isinstance(axes, Mapping) else list(axes)
        if not items:
            raise ConfigError("a campaign needs at least one axis")
        normalized = []
        for field_name, values in items:
            if field_name not in _SPEC_FIELDS:
                raise ConfigError(
                    f"axis {field_name!r} is not an ExperimentSpec field"
                )
            if field_name == "name":
                raise ConfigError("cell names are derived; 'name' cannot be an axis")
            values = tuple(values)
            if not values:
                raise ConfigError(f"axis {field_name!r} has no values")
            # Dedup on repr: axis values may be unhashable (fault
            # plans are dicts).
            if len({repr(v) for v in values}) != len(values):
                raise ConfigError(f"axis {field_name!r} has duplicate values")
            normalized.append((field_name, values))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "axes", tuple(normalized))
        object.__setattr__(self, "_cells", None)  # memoized expansion

    # ------------------------------------------------------------------
    # Grid expansion
    # ------------------------------------------------------------------
    @property
    def axis_names(self) -> tuple[str, ...]:
        """The grid dimensions, in declaration order."""
        return tuple(name for name, _values in self.axes)

    def cells(self) -> list[ExperimentSpec]:
        """Expand the grid into fully-specified cells, in grid order.

        Grid order iterates the *last* axis fastest (``itertools.
        product`` semantics), so declaring ``engine`` first groups a
        report by engine — the order the paper's tables use.  The
        expansion (including per-cell validation and hashing) is
        memoized: the CLI, the audit, and the runner all share it.
        """
        if self._cells is not None:
            return list(self._cells)
        cells = []
        for combo in itertools.product(*(values for _name, values in self.axes)):
            overrides = dict(zip(self.axis_names, combo))
            label = ",".join(
                f"{name}={_render(value)}" for name, value in overrides.items()
            )
            cells.append(replace(self.base, name=f"{self.name}/{label}", **overrides))
        seen: dict[str, str] = {}
        for cell in cells:
            digest = cell.stable_hash()
            if digest in seen:
                raise ConfigError(
                    f"cells {seen[digest]!r} and {cell.name!r} are identical; "
                    "axes must produce distinct experiments"
                )
            seen[digest] = cell.name
        object.__setattr__(self, "_cells", tuple(cells))
        return cells

    def key_for(self, spec: ExperimentSpec) -> tuple:
        """A cell's coordinates: its axis values, enums as strings."""
        return tuple(_axis_value(getattr(spec, name)) for name in self.axis_names)

    # ------------------------------------------------------------------
    # Self-audit
    # ------------------------------------------------------------------
    def plan(self, notes: str = "") -> EvaluationPlan:
        """The evaluation plan this grid implies (pitfall audit input)."""
        return plan_from_specs(
            self.cells(), notes=notes or f"campaign {self.name!r}"
        )


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
#: ``paper-core`` is the smallest grid that clears all seven pitfalls:
#: two engines, three SSD classes, two dataset sizes, with and without
#: software over-provisioning, run past 3x capacity with steady-state
#: detection.  ``smoke`` is the CI-sized 2x2 grid exercising the
#: multiprocessing path in seconds.
PRESETS: dict[str, CampaignSpec] = {
    "paper-core": CampaignSpec(
        name="paper-core",
        base=ExperimentSpec(
            capacity_bytes=32 * MIB,
            duration_capacity_writes=3.0,
            sample_interval=0.2,
        ),
        axes={
            "engine": (Engine.LSM, Engine.BTREE),
            "ssd": ("ssd1", "ssd2", "ssd3"),
            "dataset_fraction": (0.25, 0.5),
            # 10% reservation: the largest that still leaves the LSM's
            # fixed overheads room at the 0.5 dataset fraction on a
            # 32 MiB device (cf. fig7's scale note).
            "op_reserved_fraction": (0.0, 0.10),
        },
    ),
    "smoke": CampaignSpec(
        name="smoke",
        base=ExperimentSpec(
            capacity_bytes=24 * MIB,
            duration_capacity_writes=1.5,
            sample_interval=0.1,
            max_ops=20_000,
        ),
        axes={
            "engine": (Engine.LSM, Engine.BTREE),
            "dataset_fraction": (0.3, 0.45),
        },
    ),
    #: The queue-depth sweep (ROADMAP): throughput and tail latency vs
    #: concurrent clients, per engine and SSD class.  Every cell
    #: reports per-client results (``driver="pool"``), so the depth-1
    #: cells record per-op latencies too.
    "queue-depth": CampaignSpec(
        name="queue-depth",
        base=ExperimentSpec(
            capacity_bytes=32 * MIB,
            duration_capacity_writes=3.0,
            sample_interval=0.2,
            driver="pool",
        ),
        axes={
            "engine": (Engine.LSM, Engine.BTREE),
            "ssd": ("ssd1", "ssd2", "ssd3"),
            "nclients": (1, 4, 16, 64),
        },
    ),
    #: The fleet SLO sweep (DESIGN.md §10): latency and goodput vs
    #: *offered* load, per engine and shard count, under open-loop
    #: Poisson traffic with bounded admission.  The rate axis brackets
    #: saturation for both engines at this scale — the low rate leaves
    #: both healthy, the middle one saturates the B+Tree while the LSM
    #: still attains its SLO, and the high one drives both past their
    #: goodput ceiling — so the rendered table shows the
    #: latency-vs-offered-load inflection the paper's methodology is
    #: about.
    "fleet-slo": CampaignSpec(
        name="fleet-slo",
        base=ExperimentSpec(
            capacity_bytes=24 * MIB,
            dataset_fraction=0.4,
            duration_capacity_writes=1.5,
            sample_interval=0.1,
            max_ops=15_000,
            arrival="poisson",
            # Placeholder so the base validates; every cell overrides
            # it from the arrival_rate axis.
            arrival_rate=2000.0,
            queue_cap=32,
            slo_ms=5.0,
        ),
        axes={
            "engine": (Engine.LSM, Engine.BTREE),
            "nshards": (1, 2),
            "arrival_rate": (2000.0, 8000.0, 32000.0),
        },
    ),
    #: The chaos sweep (DESIGN.md §11): availability, SLO attainment,
    #: retry amplification and recovery time under injected faults and
    #: a mid-run shard crash, per engine.  The fault axis brackets a
    #: clean run against a flaky device (transient read/program errors
    #: plus latency spikes); the kill axis crashes shard 0 mid-run so
    #: the WAL-replay (LSM) / journal (B+Tree) recovery paths show up
    #: in the rendered table.  Fail-fast on the down shard plus retry
    #: with backoff keeps the run deterministic end to end.
    "chaos": CampaignSpec(
        name="chaos",
        base=ExperimentSpec(
            capacity_bytes=24 * MIB,
            dataset_fraction=0.35,
            duration_capacity_writes=1.5,
            sample_interval=0.1,
            max_ops=6_000,
            nshards=2,
            arrival="poisson",
            arrival_rate=4000.0,
            queue_cap=16,
            slo_ms=5.0,
            op_timeout_ms=50.0,
            # A read mix keeps foreground device I/O in the measured
            # phase for both engines (the LSM's buffered WAL would
            # otherwise hide read/latency faults from the percentiles).
            read_fraction=0.25,
        ),
        axes={
            "engine": (Engine.LSM, Engine.BTREE),
            "faults": (
                None,
                {"read": 0.05, "program": 0.02, "latency": 0.05,
                 "read_penalty_ms": 2.0},
            ),
            "kill_at": (None, 0.05),
        },
    ),
}
