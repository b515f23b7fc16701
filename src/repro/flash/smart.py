"""SMART-style device counters.

The paper measures device-level write amplification (WA-D) "via SMART
attributes of the device" (§3.3): the ratio between bytes written to
flash (host writes plus garbage-collection relocations) and bytes the
host sent.  This module provides the same cumulative counters; the
shared :class:`~repro.counters.Counters` base gives them the
snapshot/delta helpers so windowed WA-D can be computed as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.counters import Counters


@dataclass(slots=True)
class SmartAttributes(Counters):
    """Cumulative device counters, all monotonically non-decreasing."""

    layer = "flash"

    host_bytes_written: int = 0
    host_bytes_read: int = 0
    nand_bytes_written: int = 0  # host writes + GC relocations, as programmed
    nand_bytes_read: int = 0  # host reads + GC relocation reads
    gc_bytes_relocated: int = 0
    blocks_erased: int = 0
    trim_commands: int = 0
    host_write_requests: int = 0
    host_read_requests: int = 0
    fold_events: int = 0  # writes that paid the SLC->QLC fold penalty
    gc_reclaims: int = 0  # victim blocks reclaimed (one erase each)
    gc_pages_moved: int = 0  # valid pages relocated out of victims
    gc_flash_reads: int = 0  # flash page reads performed for relocation
    media_errors: int = 0  # injected read faults recovered by ECC retry
    program_failures: int = 0  # injected program faults (host re-drives)
    latency_spikes: int = 0  # injected long-tail service delays
    realloc_blocks: int = 0  # grown bad blocks retired from the free pool

    def device_write_amplification(self) -> float:
        """WA-D: flash bytes programmed per host byte written (>= 1)."""
        if self.host_bytes_written == 0:
            return 1.0
        return self.nand_bytes_written / self.host_bytes_written
