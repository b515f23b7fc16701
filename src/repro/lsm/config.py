"""Configuration of the LSM-tree engine (the RocksDB model).

Defaults are the paper's RocksDB setup scaled by 1/1000 together with
the device (DESIGN.md §2): a small memtable, leveled compaction with a
size multiplier, an L0 file-count trigger and RocksDB-style write
stalls driven by the device backlog.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import KIB, MIB, usec


@dataclass(frozen=True)
class LSMConfig:
    """Immutable LSM engine configuration."""

    # Accounting sizes (the paper uses 16-byte keys, §3.2).
    key_bytes: int = 16
    entry_overhead: int = 24  # per-entry metadata in SSTables / memtable

    # Write path.
    memtable_bytes: int = 1 * MIB
    wal_buffer_bytes: int = 64 * KIB
    wal_entry_overhead: int = 17

    # Tree shape (leveled compaction).
    l0_compaction_trigger: int = 4
    max_bytes_for_level_base: int = 1 * MIB  # L1 target
    level_size_multiplier: int = 8
    num_levels: int = 7
    target_file_bytes: int = 1 * MIB

    # Reads.
    bloom_bits_per_key: int = 10
    block_bytes: int = 4 * KIB

    # CPU cost per user operation (RocksDB is lightly CPU-bound, §4.1).
    cpu_overhead: float = usec(30.0)

    # Write-stall model: RocksDB slows down and then stops user writes
    # when compaction falls behind.  Flushes and compactions run inside
    # the op that fills the memtable, so L0 never piles up; the one
    # proxy for "behind" is the device backlog b in seconds of queued
    # flash work, read when the write is issued.  Each write pays a
    # penalty on top of its CPU cost (and its WAL write-out, if any):
    # nothing while b <= soft, (b - soft) * slowdown_factor while
    # b <= hard, and (hard - soft) * slowdown_factor + (b - hard) past
    # the hard limit.  It does not set throughput on most cells: a WAL
    # write-out already waits for the backlog to fit the device's
    # write cache, well below the soft limit.  It binds where
    # background work outruns a small cache (fig 9/10's LSM cell on
    # SSD2).
    backlog_soft_limit: float = 0.25
    backlog_hard_limit: float = 1.0
    slowdown_factor: float = 0.08

    def __post_init__(self) -> None:
        if self.key_bytes <= 0:
            # Also load-bearing for the batched scan path: every
            # memtable mutation must grow approximate_bytes by at
            # least key_bytes, which is what validates the memoized
            # sorted_columns() snapshot (DESIGN.md §13.1).
            raise ConfigError("key_bytes must be positive")
        if self.entry_overhead < 0:
            raise ConfigError("entry_overhead cannot be negative")
        if self.memtable_bytes <= 0:
            raise ConfigError("memtable_bytes must be positive")
        if self.l0_compaction_trigger < 1:
            raise ConfigError("l0_compaction_trigger must be >= 1")
        if self.level_size_multiplier < 2:
            raise ConfigError("level_size_multiplier must be >= 2")
        if self.num_levels < 2:
            raise ConfigError("num_levels must be >= 2")
        if self.target_file_bytes <= 0:
            raise ConfigError("target_file_bytes must be positive")
        if not 0 < self.backlog_soft_limit <= self.backlog_hard_limit:
            raise ConfigError("backlog limits must satisfy 0 < soft <= hard")

    def level_target_bytes(self, level: int) -> int:
        """Size target of level *level* (1-based; L0 is count-triggered)."""
        if level < 1:
            raise ConfigError("level targets are defined for L1 and deeper")
        return self.max_bytes_for_level_base * self.level_size_multiplier ** (level - 1)
