"""Workload specification (§3.2 of the paper).

The default mirrors the paper: update-only, uniformly random keys,
16-byte keys with 4000-byte values, single user thread, preceded by a
sequential load of the whole dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class WorkloadSpec:
    """What one client does during the measured phase.

    The remaining probability mass after reads, scans and deletes is
    updates (the paper's default workload is update-only: all fractions
    zero).
    """

    nkeys: int
    value_bytes: int = 4000
    read_fraction: float = 0.0  # 0.0 = write-only; 0.5 = the paper's mixed workload
    distribution: str = "uniform"
    scan_fraction: float = 0.0
    scan_length: int = 100
    delete_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.nkeys <= 0:
            raise ConfigError("nkeys must be positive")
        if self.value_bytes < 0:
            raise ConfigError("value_bytes cannot be negative")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError("read_fraction must be in [0, 1]")
        if not 0.0 <= self.scan_fraction <= 1.0 - self.read_fraction:
            raise ConfigError("scan_fraction + read_fraction must be <= 1")
        if not 0.0 <= self.delete_fraction <= 1.0 - self.read_fraction - self.scan_fraction:
            raise ConfigError(
                "delete_fraction + scan_fraction + read_fraction must be <= 1"
            )

    def thresholds(self) -> tuple[float, float, float]:
        """Cumulative op-kind thresholds in (read, scan, delete) order.

        The single source of the op-mix draw: the batch planner, which
        every shipped driver draws through, feeds the three floats to
        its vectorized ``searchsorted`` split, and the tests' per-op
        reference drivers compare ``draw < threshold`` in this order,
        so a draw maps to the same op kind everywhere.
        """
        read = self.read_fraction
        scan = read + self.scan_fraction
        delete = scan + self.delete_fraction
        return (read, scan, delete)

    @property
    def dataset_bytes(self) -> int:
        """Application dataset size: keys plus values (16-byte keys)."""
        return self.nkeys * (16 + self.value_bytes)
