"""Reproductions of every figure in the paper's evaluation (§4).

Each ``figN_*`` function runs the corresponding scaled experiment(s)
and returns a :class:`FigureResult` whose ``text`` holds the same
rows/series the paper's figure reports.  ``repro run-figure`` prints
them, the benchmark suite (`benchmarks/bench_figNN_*.py`) asserts each
figure's expected shape, and the ledger's claim table
(``benchmarks/ledger/claims.py``) records which of the paper's
qualitative results hold.  As in the paper the figures share
measurements (Fig 8 is computed from Fig 7's runs), so every result
comes through :func:`run_cell`: one simulation per distinct cell.

Scales
======
``SMALL`` is for tests/CI (seconds per figure), ``DEFAULT`` drives the
benchmark suite, ``FULL`` is the closest to the paper's geometry
(400 MiB device = the 400 GB drive at 1/1000).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any

from repro.analysis.cdf import cdf_knee, coverage_fraction, write_probability_cdf
from repro.campaign.spec import CampaignSpec
from repro.analysis.stats import (
    coefficient_of_variation,
    fraction_below,
    relative_swing,
    windowed_average,
)
from repro.core.cost import CostOption, compare_costs, render_heatmap
from repro.core.experiment import Engine, ExperimentResult, ExperimentSpec, run_experiment
from repro.core.metrics import end_to_end_write_amplification
from repro.core.report import render_series, render_table
from repro.errors import ConfigError
from repro.flash.state import DriveState
from repro.units import MIB

TB = 10**12
KOPS = 1000.0


@dataclass(frozen=True)
class Scale:
    """How large to run the figure experiments."""

    name: str
    capacity_bytes: int
    duration_capacity_writes: float
    sample_interval: float


SMALL = Scale("small", 48 * MIB, 2.5, 0.2)
DEFAULT = Scale("default", 128 * MIB, 3.5, 0.25)
FULL = Scale("full", 400 * MIB, 3.5, 0.5)

SCALES = {s.name: s for s in (SMALL, DEFAULT, FULL)}

#: The capacity of the paper's drive; used to present cost-model
#: results in paper units (measured ratios are scale-free).
PAPER_DRIVE_BYTES = 400 * 10**9


@dataclass
class FigureResult:
    """A reproduced figure: structured data plus rendered text."""

    figure_id: str
    title: str
    data: dict[str, Any]
    text: str


def spec_for(scale: Scale, engine: Engine, **overrides) -> ExperimentSpec:
    """The paper's default experiment (§3) at the given scale."""
    params = dict(
        name=f"{engine.value}",
        engine=engine,
        ssd="ssd1",
        capacity_bytes=scale.capacity_bytes,
        drive_state=DriveState.TRIMMED,
        dataset_fraction=0.5,
        value_bytes=4000,
        duration_capacity_writes=scale.duration_capacity_writes,
        sample_interval=scale.sample_interval,
    )
    params.update(overrides)
    return ExperimentSpec(**params)


def _series_rows(result: ExperimentResult) -> list[list]:
    return [
        [f"{s.t:.2f}", f"{s.kv_tput / KOPS:.2f}", f"{s.dev_write_mbps:.0f}",
         f"{s.dev_read_mbps:.0f}", f"{s.wa_a:.1f}", f"{s.wa_d:.2f}"]
        for s in result.samples
    ]


_SERIES_HEADERS = ["t(s)", "KOps/s", "devW MB/s", "devR MB/s", "WA-A", "WA-D"]


#: The cell cache (DESIGN.md §5.5): one simulated result per distinct
#: spec for the life of the process, keyed by the canonical JSON of
#: ``spec.to_dict()`` minus ``name`` (which ``stable_hash()`` includes).
_CELLS: dict[str, ExperimentResult] = {}
#: Since the cache was last emptied: cells simulated, requests shared.
CELL_COUNTS = {"run": 0, "shared": 0}


def clear_cells() -> None:
    """Empty the cell cache (tests and standalone timings start cold)."""
    _CELLS.clear()
    CELL_COUNTS.update(run=0, shared=0)


def run_cell(spec: ExperimentSpec) -> ExperimentResult:
    """The result of *spec*, simulated at most once per process.

    Each request gets its own :class:`ExperimentResult` carrying the
    caller's spec; ``samples``, ``counters`` and every other field are
    shared with the cached run and must be treated as read-only.
    """
    fields = spec.to_dict()
    del fields["name"]
    key = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    cached = _CELLS.get(key)
    if cached is None:
        cached = _CELLS[key] = run_experiment(spec)
        CELL_COUNTS["run"] += 1
    else:
        CELL_COUNTS["shared"] += 1
    return replace(cached, spec=spec)


def _run_grid(campaign: CampaignSpec) -> dict[tuple, ExperimentResult]:
    """Every cell of the grid, keyed by axis coordinates in grid order."""
    return {campaign.key_for(spec): run_cell(spec) for spec in campaign.cells()}


def _completed(figure_id: str, result: ExperimentResult) -> ExperimentResult:
    """*result*, for a derived line or heatmap that cannot do without it."""
    if result.out_of_space or result.steady is None:
        spec = result.spec
        raise ConfigError(
            f"{figure_id}: cell {spec.name!r} (dataset/cap {spec.dataset_fraction:g}, "
            f"{spec.op_reserved_fraction:.0%} reserved) ran out of space"
        )
    return result


# ----------------------------------------------------------------------
# Figure 2: steady-state vs bursty performance (pitfall 1)
# ----------------------------------------------------------------------
def fig2_steady_state(scale: Scale = DEFAULT) -> FigureResult:
    """Throughput and write amplification over time on a trimmed SSD."""
    results = {}
    sections = []
    for engine in (Engine.LSM, Engine.BTREE):
        result = run_cell(spec_for(scale, engine))
        results[engine.value] = result
        label = "RocksDB-model (LSM)" if engine is Engine.LSM else "WiredTiger-model (B+Tree)"
        sections.append(
            render_series(f"Fig 2 [{label}] trimmed SSD", _SERIES_HEADERS,
                          _series_rows(result))
        )
        steady = result.steady
        first = result.samples[0]
        sections.append(
            f"  initial {first.kv_tput / KOPS:.2f} KOps/s -> steady "
            f"{steady.kv_tput / KOPS:.2f} KOps/s "
            f"(x{first.kv_tput / max(steady.kv_tput, 1e-9):.1f} early-measurement error); "
            f"steady WA-A={steady.wa_a:.1f} WA-D={steady.wa_d:.2f} "
            f"end-to-end WA={end_to_end_write_amplification(steady):.1f}"
        )
    return FigureResult(
        "fig2", "Steady-state vs bursty performance (trimmed SSD)",
        {"results": results}, "\n".join(sections),
    )


# ----------------------------------------------------------------------
# Figure 3: initial conditions of the drive (pitfall 3)
# ----------------------------------------------------------------------
def fig3_drive_state(scale: Scale = DEFAULT) -> FigureResult:
    """Trimmed vs preconditioned drive: throughput and WA-D over time."""
    results = {}
    rows = []
    for engine in (Engine.LSM, Engine.BTREE):
        for state in (DriveState.TRIMMED, DriveState.PRECONDITIONED):
            result = run_cell(spec_for(scale, engine, drive_state=state))
            results[(engine.value, state.value)] = result
            steady = result.steady
            rows.append([
                engine.value, state.value,
                f"{steady.kv_tput / KOPS:.2f}", f"{steady.wa_d:.2f}",
                f"{result.samples[0].wa_d:.2f}",
            ])
    text = render_table(
        ["engine", "drive state", "steady KOps/s", "steady WA-D", "initial WA-D"],
        rows, title="Fig 3: impact of the initial SSD state",
    )
    lsm_gap = _state_gap(results, Engine.LSM)
    btree_gap = _state_gap(results, Engine.BTREE)
    text += (
        f"\n  steady-state throughput ratio trimmed/preconditioned: "
        f"lsm={lsm_gap:.2f} btree={btree_gap:.2f} "
        f"(the B+Tree keeps a state-dependent gap; the LSM converges)"
    )
    return FigureResult("fig3", "Initial conditions of the drive",
                        {"results": results}, text)


def _state_gap(results, engine: Engine) -> float:
    trimmed = results[(engine.value, "trimmed")].steady.kv_tput
    preconditioned = results[(engine.value, "preconditioned")].steady.kv_tput
    return trimmed / max(preconditioned, 1e-9)


# ----------------------------------------------------------------------
# Figure 4: CDF of LBA write probability
# ----------------------------------------------------------------------
def fig4_lba_cdf(scale: Scale = DEFAULT) -> FigureResult:
    """Which fraction of the LBA space each engine writes."""
    data = {}
    rows = []
    for engine in (Engine.LSM, Engine.BTREE):
        result = run_cell(spec_for(scale, engine, trace_lba=True))
        x, y = write_probability_cdf(result.lba_histogram)
        data[engine.value] = {
            "cdf": (x, y),
            "never_written": result.lba_never_written,
            "knee": cdf_knee(result.lba_histogram),
            "coverage": coverage_fraction(result.lba_histogram),
        }
        rows.append([
            engine.value,
            f"{data[engine.value]['coverage']:.2f}",
            f"{result.lba_never_written:.2f}",
            f"{data[engine.value]['knee']:.2f}",
        ])
    text = render_table(
        ["engine", "LBA coverage", "never written", "CDF=1 at x"],
        rows, title="Fig 4: CDF of LBA write probability",
    )
    return FigureResult("fig4", "LBA write-probability CDF", data, text)


# ----------------------------------------------------------------------
# Figure 5: dataset size sweep (pitfall 4)
# ----------------------------------------------------------------------
FIG5_FRACTIONS = (0.25, 0.37, 0.5, 0.62)


def fig5_dataset_size(scale: Scale = DEFAULT,
                      fractions: tuple[float, ...] = FIG5_FRACTIONS) -> FigureResult:
    """Steady-state throughput, WA-D, WA-A vs dataset/capacity ratio."""
    campaign = CampaignSpec(
        name="fig5",
        base=spec_for(scale, Engine.LSM),
        axes={
            "engine": (Engine.LSM, Engine.BTREE),
            "drive_state": (DriveState.TRIMMED, DriveState.PRECONDITIONED),
            "dataset_fraction": tuple(fractions),
        },
    )
    results = _run_grid(campaign)
    rows = []
    for (engine, state, fraction), result in results.items():
        if result.out_of_space or result.steady is None:
            rows.append([engine, state, fraction, "OUT OF SPACE", "-", "-"])
            continue
        steady = result.steady
        rows.append([
            engine, state, fraction,
            f"{steady.kv_tput / KOPS:.2f}", f"{steady.wa_d:.2f}",
            f"{steady.wa_a:.1f}",
        ])
    text = render_table(
        ["engine", "state", "dataset/cap", "KOps/s", "WA-D", "WA-A"],
        rows, title="Fig 5: impact of the dataset size",
    )
    return FigureResult("fig5", "Dataset size sweep",
                        {"results": results, "campaign": campaign}, text)


# ----------------------------------------------------------------------
# Figure 6: space amplification and storage cost (pitfall 5)
# ----------------------------------------------------------------------
FIG6_FRACTIONS = (0.25, 0.37, 0.5, 0.62, 0.75, 0.88)


def fig6_space_amplification(scale: Scale = DEFAULT,
                             fractions: tuple[float, ...] = FIG6_FRACTIONS) -> FigureResult:
    """Disk utilization, space amplification, and the cost heatmap."""
    rows = []
    measurements: dict[tuple[str, float], ExperimentResult] = {}
    for engine in (Engine.LSM, Engine.BTREE):
        for fraction in fractions:
            result = run_cell(spec_for(scale, engine, dataset_fraction=fraction))
            measurements[(engine.value, fraction)] = result
            if result.out_of_space:
                rows.append([engine.value, fraction, "OUT OF SPACE", "-"])
                continue
            rows.append([
                engine.value, fraction,
                f"{result.peak_disk_utilization * 100:.0f}%",
                f"{result.peak_space_amp:.2f}",
            ])
    text = render_table(
        ["engine", "dataset/cap", "disk utilization", "space amp"],
        rows, title="Fig 6a/6b: disk utilization and space amplification",
    )

    # Fig 6c: cost heatmap from the 0.5-fraction steady measurements.
    reference = 0.5 if 0.5 in fractions else fractions[min(2, len(fractions) - 1)]
    _options, grid, heatmap = _cost_heatmap("fig6", {
        engine: (measurements[(engine, reference)], 0.0) for engine in ("lsm", "btree")
    })
    text += "\n\nFig 6c: cheapest system per (dataset, target throughput)\n"
    text += heatmap
    return FigureResult(
        "fig6", "Space amplification and storage cost",
        {"measurements": measurements, "grid": grid}, text,
    )


def _cost_heatmap(figure_id: str,
                  candidates: dict[str, tuple[ExperimentResult, float]]):
    """The cheapest of *candidates* (name -> measured cell, fraction of
    the drive it reserves) per (dataset, target throughput), presented
    at the paper's drive size (measured ratios are scale-free)."""
    options = [
        CostOption.from_measurement(
            name, _completed(figure_id, result).steady.kv_tput, PAPER_DRIVE_BYTES,
            result.peak_space_amp, reserved_fraction=reserved)
        for name, (result, reserved) in candidates.items()
    ]
    datasets = [i * TB for i in range(1, 6)]
    targets = [i * 1000.0 for i in range(5, 26, 5)]
    grid = compare_costs(options, datasets, targets)
    return options, grid, render_heatmap(grid, dataset_unit=TB, target_unit=1000.0)


# ----------------------------------------------------------------------
# Figure 7: software over-provisioning (pitfall 6)
# ----------------------------------------------------------------------
def fig7_overprovisioning(scale: Scale = DEFAULT,
                          reserved_fraction: float | None = None) -> FigureResult:
    """Throughput and WA-D with and without an OP partition.

    The paper reserves 100 GB of a trimmed 400 GB drive (25%) — half of
    the free capacity after loading the 200 GB dataset.  At the tiny
    test scale the LSM engine's fixed overheads leave less headroom, so
    the reservation shrinks to 15% there.
    """
    if reserved_fraction is None:
        reserved_fraction = 0.25 if scale.capacity_bytes >= 96 * MIB else 0.15
    campaign = CampaignSpec(
        name="fig7",
        base=spec_for(scale, Engine.LSM),
        axes={
            "engine": (Engine.LSM, Engine.BTREE),
            "drive_state": (DriveState.TRIMMED, DriveState.PRECONDITIONED),
            "op_reserved_fraction": (0.0, reserved_fraction),
        },
    )
    results = _run_grid(campaign)
    rows = []
    for (engine, state, reserved), result in results.items():
        op = "extra-OP" if reserved else "no-OP"
        if result.out_of_space or result.steady is None:
            rows.append([engine, state, op, "OUT OF SPACE", "-"])
            continue
        steady = result.steady
        rows.append([
            engine, state, op,
            f"{steady.kv_tput / KOPS:.2f}", f"{steady.wa_d:.2f}",
        ])
    text = render_table(
        ["engine", "state", "OP", "KOps/s", "WA-D"],
        rows, title=f"Fig 7: extra over-provisioning ({reserved_fraction:.0%} reserved)",
    )
    no_op, extra = (
        _completed("fig7", results[("lsm", "preconditioned", reserved)]).steady.kv_tput
        for reserved in (0.0, reserved_fraction)
    )
    text += f"\n  LSM preconditioned speedup from extra OP: x{extra / max(no_op, 1e-9):.2f}"
    return FigureResult("fig7", "SSD software over-provisioning",
                        {"results": results, "campaign": campaign}, text)


# ----------------------------------------------------------------------
# Figure 8: cost comparison of OP vs no-OP (LSM engine)
# ----------------------------------------------------------------------
def fig8_op_cost(scale: Scale = DEFAULT,
                 reserved_fraction: float | None = None) -> FigureResult:
    """Cheapest RocksDB-model deployment: extra OP or full capacity."""
    results = fig7_overprovisioning(scale, reserved_fraction).data["results"]
    reserved_fraction = max(key[2] for key in results)
    options, grid, heatmap = _cost_heatmap("fig8", {
        "no-OP": (results[("lsm", "preconditioned", 0.0)], 0.0),
        "extra-OP": (results[("lsm", "preconditioned", reserved_fraction)],
                     reserved_fraction),
    })
    text = f"Fig 8: cheapest RocksDB-model configuration (preconditioned SSD)\n{heatmap}"
    return FigureResult("fig8", "Over-provisioning storage-cost comparison",
                        {"grid": grid, "options": options}, text)


# ----------------------------------------------------------------------
# Figure 9: SSD types (pitfall 7)
# ----------------------------------------------------------------------
def fig9_ssd_types(scale: Scale = DEFAULT,
                   dataset_fraction: float = 0.05) -> FigureResult:
    """Steady throughput on SSD1/SSD2/SSD3 with a small trimmed dataset."""
    # The paper's dataset is 10x smaller than the default; below ~8 MiB
    # (scaled) the dataset degenerates against fixed engine buffer
    # sizes, so small scales raise the fraction instead.
    dataset_fraction = max(dataset_fraction, 8 * MIB / scale.capacity_bytes)
    campaign = CampaignSpec(
        name="fig9",
        base=spec_for(scale, Engine.LSM, dataset_fraction=dataset_fraction),
        axes={
            "engine": (Engine.LSM, Engine.BTREE),
            "ssd": ("ssd1", "ssd2", "ssd3"),
        },
    )
    results = _run_grid(campaign)
    for result in results.values():  # the ratios (and Fig 10) compare them all
        _completed("fig9", result)
    rows = [
        [engine, ssd,
         f"{result.steady.kv_tput / KOPS:.2f}",
         f"{result.steady.wa_d:.2f}"]
        for (engine, ssd), result in results.items()
    ]
    text = render_table(
        ["engine", "SSD", "KOps/s", "WA-D"],
        rows, title="Fig 9: impact of the SSD type (small dataset, trimmed)",
    )
    lsm = {ssd: results[("lsm", ssd)].steady.kv_tput for ssd in ("ssd1", "ssd2", "ssd3")}
    btree = {ssd: results[("btree", ssd)].steady.kv_tput for ssd in ("ssd1", "ssd2", "ssd3")}
    winner_flips = (lsm["ssd1"] > btree["ssd1"]) != (lsm["ssd2"] > btree["ssd2"])
    text += (
        f"\n  LSM best/worst ratio: x{max(lsm.values()) / max(min(lsm.values()), 1e-9):.1f}; "
        f"B+Tree best/worst ratio: x{max(btree.values()) / max(min(btree.values()), 1e-9):.1f}; "
        f"ranking flips across SSDs: {winner_flips}"
    )
    return FigureResult("fig9", "Impact of the storage technology",
                        {"results": results, "campaign": campaign}, text)


# ----------------------------------------------------------------------
# Figure 10: throughput variability per SSD type
# ----------------------------------------------------------------------
def fig10_variability(scale: Scale = DEFAULT,
                      dataset_fraction: float = 0.05) -> FigureResult:
    """Fine-grained throughput over time for each SSD type."""
    # Fig 9's cells, shared; it raises unless all six completed.
    results = fig9_ssd_types(scale, dataset_fraction).data["results"]
    rows = []
    series = {}
    for (engine, ssd), result in results.items():
        t = [s.t for s in result.samples]
        v = [s.kv_tput for s in result.samples]
        wt, wv = windowed_average(t, v, window=scale.sample_interval * 2)
        series[(engine, ssd)] = (wt, wv)
        mean = sum(v) / max(len(v), 1)
        rows.append([
            engine, ssd,
            f"{coefficient_of_variation(v):.2f}",
            f"{relative_swing(v):.2f}",
            f"{fraction_below(v, 0.05 * mean):.2f}",
        ])
    text = render_table(
        ["engine", "SSD", "coeff. of variation", "relative swing", "stalled fraction"],
        rows, title="Fig 10: throughput variability by SSD type",
    )
    return FigureResult("fig10", "Throughput variability",
                        {"series": series, "rows": rows}, text)


# ----------------------------------------------------------------------
# Figure 11: additional workloads
# ----------------------------------------------------------------------
def fig11_workloads(scale: Scale = DEFAULT) -> FigureResult:
    """50:50 read:write mix and 128-byte values, trimmed vs preconditioned."""
    variants = {
        "mixed-50-50": dict(read_fraction=0.5),
        "small-values-128B": dict(value_bytes=128),
    }
    results = {}
    sections = []
    for variant, overrides in variants.items():
        rows = []
        for engine in (Engine.LSM, Engine.BTREE):
            for state in (DriveState.TRIMMED, DriveState.PRECONDITIONED):
                result = run_cell(
                    spec_for(scale, engine, drive_state=state, **overrides)
                )
                results[(variant, engine.value, state.value)] = result
                steady = result.steady
                first = result.samples[0]
                rows.append([
                    engine.value, state.value,
                    f"{first.kv_tput / KOPS:.2f}", f"{steady.kv_tput / KOPS:.2f}",
                    f"{first.wa_d:.2f}", f"{steady.wa_d:.2f}",
                ])
        sections.append(render_table(
            ["engine", "state", "initial KOps/s", "steady KOps/s",
             "initial WA-D", "steady WA-D"],
            rows, title=f"Fig 11 [{variant}]",
        ))
    return FigureResult("fig11", "Additional workloads",
                        {"results": results}, "\n\n".join(sections))


#: Registry used by the CLI and the benchmark suite.
FIGURES = {
    "fig2": fig2_steady_state,
    "fig3": fig3_drive_state,
    "fig4": fig4_lba_cdf,
    "fig5": fig5_dataset_size,
    "fig6": fig6_space_amplification,
    "fig7": fig7_overprovisioning,
    "fig8": fig8_op_cost,
    "fig9": fig9_ssd_types,
    "fig10": fig10_variability,
    "fig11": fig11_workloads,
}
