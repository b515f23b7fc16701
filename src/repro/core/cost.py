"""Storage-cost modeling (Figs 6c and 8 of the paper).

The paper's back-of-the-envelope computation: given a measured
per-instance throughput and per-drive effective capacity (nominal
capacity divided by space amplification, minus any reserved
over-provisioning), how many drives does a deployment need to hold a
dataset *and* meet a target throughput?  One PTS instance runs per
drive and aggregate throughput is the sum of instance throughputs
(the paper's simplifying assumptions, §4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.errors import ConfigError


@dataclass(frozen=True)
class CostOption:
    """One deployable configuration, measured at steady state."""

    name: str
    per_instance_tput: float  # ops/s of one instance (one drive)
    dataset_per_drive: int  # bytes of application data one drive can hold

    def __post_init__(self) -> None:
        if self.per_instance_tput <= 0 or self.dataset_per_drive <= 0:
            raise ConfigError("cost option needs positive throughput and capacity")

    @classmethod
    def from_measurement(
        cls,
        name: str,
        tput: float,
        drive_capacity: int,
        space_amp: float,
        reserved_fraction: float = 0.0,
    ) -> "CostOption":
        """Build an option from steady-state measurements.

        ``reserved_fraction`` is capacity handed to the SSD as software
        over-provisioning — it raises throughput but shrinks how much
        data the drive stores (§4.6's trade-off).
        """
        usable = drive_capacity * (1.0 - reserved_fraction)
        return cls(name, tput, int(usable / max(space_amp, 1.0)))


def drives_needed(option: CostOption, dataset_bytes: int, target_tput: float) -> int:
    """Drives required to hold the dataset and meet the target."""
    if dataset_bytes <= 0 or target_tput <= 0:
        raise ConfigError("dataset and target throughput must be positive")
    by_capacity = ceil(dataset_bytes / option.dataset_per_drive)
    by_throughput = ceil(target_tput / option.per_instance_tput)
    return max(by_capacity, by_throughput)


@dataclass
class CostGrid:
    """The winner at every (dataset size, target throughput) point."""

    datasets: list[int]
    targets: list[float]
    winners: list[list[str]]  # winners[i][j]: dataset i, target j

    def winner_at(self, dataset_bytes: int, target_tput: float) -> str:
        i = self.datasets.index(dataset_bytes)
        j = self.targets.index(target_tput)
        return self.winners[i][j]


def compare_costs(
    options: list[CostOption],
    datasets: list[int],
    targets: list[float],
) -> CostGrid:
    """Compute the cheapest option over a deployment grid.

    "Cheapest" means fewest drives; ties are reported as ``"tie"``,
    matching the paper's "same cost" band.
    """
    if len(options) < 2:
        raise ConfigError("cost comparison needs at least two options")
    winners: list[list[str]] = []
    for dataset in datasets:
        row: list[str] = []
        for target in targets:
            needed = {o.name: drives_needed(o, dataset, target) for o in options}
            best = min(needed.values())
            cheapest = [name for name, n in needed.items() if n == best]
            row.append(cheapest[0] if len(cheapest) == 1 else "tie")
        winners.append(row)
    return CostGrid(list(datasets), list(targets), winners)


def render_heatmap(grid: CostGrid, dataset_unit: float = 1.0,
                   target_unit: float = 1.0) -> str:
    """ASCII heatmap in the style of Fig 6c / Fig 8.

    Rows are target throughputs (descending, like the paper's y axis),
    columns are dataset sizes.
    """
    names = sorted({w for row in grid.winners for w in row if w != "tie"})
    symbols = {name: name[0].upper() for name in names}
    if len(set(symbols.values())) != len(symbols):
        symbols = {name: str(i) for i, name in enumerate(names)}
    symbols["tie"] = "="
    header = "target\\dataset " + " ".join(
        f"{d / dataset_unit:>8.1f}" for d in grid.datasets
    )
    lines = [header]
    for j in range(len(grid.targets) - 1, -1, -1):
        cells = " ".join(f"{symbols[grid.winners[i][j]]:>8}" for i in range(len(grid.datasets)))
        lines.append(f"{grid.targets[j] / target_unit:>14.1f} {cells}")
    legend = ", ".join(f"{symbols[name]}={name}" for name in names) + ", ==tie"
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
