"""Configuration of the B+Tree engine (the WiredTiger model).

Defaults mirror the paper's WiredTiger setup at 1/1000 scale: a small
page cache (the paper uses 10 MB against a 200 GB dataset precisely so
that the dataset does not fit in RAM, §3.1), 32 KiB leaf pages, a
write-ahead journal synced at commit, and periodic checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import KIB, usec


@dataclass(frozen=True)
class BTreeConfig:
    """Immutable B+Tree engine configuration."""

    # Accounting sizes.
    key_bytes: int = 16
    entry_overhead: int = 8  # per-entry metadata on a leaf page

    # Page geometry.
    leaf_page_bytes: int = 32 * KIB
    internal_page_bytes: int = 4 * KIB
    internal_fanout: int = 128

    # Cache: deliberately tiny relative to the dataset (§3.1), so leaf
    # accesses miss and both reads and dirty evictions hit the device
    # on the user thread — WiredTiger's sync/CPU-bound behaviour.
    cache_bytes: int = 512 * KIB

    # Split behaviour: splitting at the very end of a leaf (sequential
    # load) keeps the left page this full instead of half-splitting.
    fill_factor: float = 0.99

    # Durability.  The journal is a pre-allocated ring of recycled log
    # space (WiredTiger pre-allocates and reuses log files), so its LBA
    # footprint is fixed; checkpoints are triggered by time or by the
    # amount of journal written since the last one.
    journal_ring_bytes: int = 2 * 1024 * KIB
    checkpoint_interval: float = 5.0  # virtual seconds
    checkpoint_log_bytes: int = 1024 * KIB

    # Per-operation CPU / synchronization overhead (§4.1: WiredTiger is
    # less sensitive to the device because of CPU and sync overheads).
    cpu_overhead: float = usec(300.0)

    def __post_init__(self) -> None:
        if self.leaf_page_bytes <= 0 or self.internal_page_bytes <= 0:
            raise ConfigError("page sizes must be positive")
        if self.internal_fanout < 4:
            raise ConfigError("internal_fanout must be >= 4")
        if not 0.5 <= self.fill_factor <= 1.0:
            raise ConfigError("fill_factor must be in [0.5, 1.0]")
        if self.cache_bytes < 2 * self.leaf_page_bytes:
            raise ConfigError("cache must hold at least two leaf pages")
        if self.checkpoint_interval <= 0:
            raise ConfigError("checkpoint_interval must be positive")
        max_entry = self.key_bytes + self.entry_overhead
        if self.leaf_page_bytes <= 4 * max_entry:
            raise ConfigError("leaf pages too small for meaningful fanout")

    def leaf_entry_bytes(self, vlen: int) -> int:
        """Serialized size of one leaf entry with a *vlen*-byte value."""
        return self.key_bytes + self.entry_overhead + vlen
