"""Application-level statistics shared by the key-value engines.

``user_bytes_written`` is the denominator of application-level write
amplification (WA-A, §2.1.3): the bytes of application data handed to
the store, i.e. key size plus value size per write.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.counters import Counters


@dataclass(slots=True)
class KVStats(Counters):
    """Cumulative per-store operation counters (slotted: every
    operation of every engine bumps at least two of these)."""

    layer = "kv"

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    scans: int = 0
    user_bytes_written: int = 0  # application key+value bytes written
    user_bytes_read: int = 0  # application key+value bytes returned

    @property
    def ops(self) -> int:
        """Total operations completed."""
        return self.puts + self.gets + self.deletes + self.scans
