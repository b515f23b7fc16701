"""Write-ahead log of the LSM engine.

Every put/delete appends a record; records are buffered and written to
the log file when the buffer fills (RocksDB's default is unsynced WAL
writes, so user latency sees only the buffered device write, not an
fsync per operation).  WAL bytes are host writes and therefore part of
application-level write amplification.
"""

from __future__ import annotations

from repro.fs.filesystem import ExtentFilesystem
from repro.lsm.config import LSMConfig


class WriteAheadLog:
    """A size-buffered append-only log over the simulated filesystem."""

    __slots__ = ("fs", "config", "log_id", "_buffered")

    def __init__(self, fs: ExtentFilesystem, config: LSMConfig, log_id: int):
        self.fs = fs
        self.config = config
        self.log_id = log_id
        self._buffered = 0
        self.fs.create(self.filename)

    @property
    def filename(self) -> str:
        """The backing log file name."""
        return f"{self.log_id:06d}.log"

    def append(self, payload_bytes: int) -> float:
        """Log one record; returns the user-visible latency (often 0)."""
        self._buffered += payload_bytes + self.config.wal_entry_overhead
        if self._buffered < self.config.wal_buffer_bytes:
            return 0.0
        return self._write_out()

    def sync(self) -> float:
        """Force out any buffered records."""
        if self._buffered == 0:
            return 0.0
        return self._write_out()

    def discard(self) -> None:
        """Delete the log file (after its memtable has been flushed)."""
        self.fs.delete(self.filename)

    def _write_out(self) -> float:
        latency = self.fs.append(self.filename, self._buffered)
        self._buffered = 0
        return latency
