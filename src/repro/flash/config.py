"""Configuration of the simulated flash SSD.

The geometry/timing knobs mirror the quantities that determine the
performance dynamics described in §2.2 of the paper: page/block
geometry, hardware over-provisioning, garbage-collection watermarks,
flash operation latencies, internal parallelism, and the size of the
controller write-back cache (the mechanism behind the SSD2 results in
§4.7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import MIB, usec


@dataclass(frozen=True)
class SSDConfig:
    """Immutable description of a simulated SSD.

    The *logical* capacity exposed to the host is the physical capacity
    divided by ``1 + hw_overprovision`` (rounded down to a whole page),
    matching how vendors reserve spare blocks for garbage collection.
    """

    name: str = "generic-flash"
    page_size: int = 4096
    pages_per_block: int = 256
    nblocks: int = 428
    hw_overprovision: float = 0.07

    # Flash timing (per physical operation).
    read_latency: float = usec(90.0)  # host-visible latency floor per read request
    page_read_time: float = usec(10.0)  # per-page streaming cost on top of the floor
    program_time: float = usec(200.0)  # per-page program time
    erase_time: float = usec(2000.0)  # per-block erase time
    channels: int = 16  # internal parallelism dividing program/erase time

    # Host interface and controller cache.
    bus_bytes_per_s: float = 2000e6
    write_cache_bytes: int = 4 * MIB
    write_latency: float = usec(20.0)  # host-visible latency floor per write request
    read_contention: float = 2.0  # read slowdown factor at full write backlog
    read_contention_window: float = 0.050  # seconds of backlog treated as "full"
    # SLC-cache folding: consumer QLC drives stage writes in an SLC
    # cache and later fold them into QLC; once the cache is overwhelmed
    # every incoming byte effectively costs this multiple of the
    # nominal program time.  1.0 = no folding (enterprise drives).
    fold_penalty: float = 1.0

    # Garbage collection.
    gc_low_watermark: float = 0.02  # start GC when free blocks fall below this
    gc_high_watermark: float = 0.05  # collect until free blocks reach this

    # Device class switches.
    byte_addressable: bool = False  # Optane-like: in-place updates, no GC, WA-D == 1

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.pages_per_block <= 0 or self.nblocks <= 0:
            raise ConfigError("geometry values must be positive")
        if not 0.0 <= self.hw_overprovision < 1.0:
            raise ConfigError("hw_overprovision must be in [0, 1)")
        if self.channels <= 0:
            raise ConfigError("channels must be positive")
        if not 0.0 < self.gc_low_watermark <= self.gc_high_watermark < 1.0:
            raise ConfigError("GC watermarks must satisfy 0 < low <= high < 1")
        if min(self.read_latency, self.program_time, self.erase_time) < 0:
            raise ConfigError("latencies must be non-negative")
        if not self.byte_addressable:
            spare_blocks = (self.total_pages - self.logical_pages) // self.pages_per_block
            if spare_blocks < 5:
                raise ConfigError(
                    "flash devices need >= 5 spare blocks of hardware "
                    f"over-provisioning (got {spare_blocks}); increase "
                    "hw_overprovision or nblocks"
                )

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def total_pages(self) -> int:
        """Physical flash pages, including hardware over-provisioning."""
        return self.nblocks * self.pages_per_block

    @property
    def logical_pages(self) -> int:
        """Pages exposed to the host (the nominal capacity)."""
        return int(self.total_pages / (1.0 + self.hw_overprovision))

    @property
    def logical_bytes(self) -> int:
        """Nominal capacity in bytes."""
        return self.logical_pages * self.page_size

    @property
    def block_bytes(self) -> int:
        """Size of one erase block in bytes."""
        return self.pages_per_block * self.page_size

    @property
    def sustained_program_rate(self) -> float:
        """Raw sustained program bandwidth in bytes/second.

        This is the drain rate of the controller write cache when no
        garbage collection is running; GC relocations reduce the
        host-visible share of this bandwidth.
        """
        return self.channels * self.page_size / self.program_time

    @property
    def cache_drain_window(self) -> float:
        """Seconds of flash work the write cache can absorb before the
        host must stall (the cache expressed in time units)."""
        return self.write_cache_bytes / self.sustained_program_rate
