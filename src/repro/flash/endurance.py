"""Flash endurance and wear analysis.

§4.2.ii of the paper: end-to-end write amplification (WA-A x WA-D) "is
the write amplification value that should be used to quantify the I/O
efficiency of a PTS on flash, and its implications on the lifetime of
an SSD".  :func:`lifetime_estimate` turns that observation into
numbers: how long a drive lasts under a measured workload, and the
DWPD that workload imposes, given the rated program/erase cycles (the
product itself is :func:`repro.core.metrics.
end_to_end_write_amplification`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

SECONDS_PER_DAY = 86_400.0


@dataclass(frozen=True)
class EnduranceEstimate:
    """Projected drive lifetime under a steady workload."""

    flash_bytes_per_day: float  # bytes programmed to flash per day
    host_bytes_per_day: float
    total_flash_budget: float  # bytes the flash can absorb before wear-out
    lifetime_days: float
    drive_writes_per_day: float  # host DWPD

    @property
    def lifetime_years(self) -> float:
        """Lifetime in years."""
        return self.lifetime_days / 365.0


def lifetime_estimate(
    capacity_bytes: int,
    user_bytes_per_second: float,
    wa_app: float,
    wa_device: float,
    pe_cycles: int = 3000,
) -> EnduranceEstimate:
    """Project drive lifetime from measured amplification factors.

    ``user_bytes_per_second`` is the application write rate; WA-A and
    WA-D multiply it into the flash program rate.  ``pe_cycles`` is the
    medium's rated program/erase endurance (3k is typical for
    enterprise MLC/TLC).
    """
    if capacity_bytes <= 0 or pe_cycles <= 0:
        raise ConfigError("capacity and pe_cycles must be positive")
    if user_bytes_per_second < 0 or wa_app < 1.0 or wa_device < 1.0:
        raise ConfigError("rates must be >= 0 and amplifications >= 1")
    host_rate = user_bytes_per_second * wa_app
    flash_rate = host_rate * wa_device
    budget = float(capacity_bytes) * pe_cycles
    flash_per_day = flash_rate * SECONDS_PER_DAY
    host_per_day = host_rate * SECONDS_PER_DAY
    lifetime = float("inf") if flash_per_day == 0 else budget / flash_per_day
    return EnduranceEstimate(
        flash_bytes_per_day=flash_per_day,
        host_bytes_per_day=host_per_day,
        total_flash_budget=budget,
        lifetime_days=lifetime,
        drive_writes_per_day=host_per_day / capacity_bytes,
    )
