"""Bounded retry-with-backoff over transient device errors.

The engine tier must not lose durability writes to a transient fault:
WAL write-outs, SSTable flushes, compaction output, journal records
and checkpoints all reach the drive through the block layer, whether
by way of the filesystem or a cached device range, and
:class:`~repro.block.device.BlockDevice` wraps its write submission in
``retry.run(...)`` when a policy is attached.  Each failed attempt
re-drives the whole request — the FTL commits nothing
on a program fault — and charges an exponentially growing backoff to
the returned latency, so retry cost is visible in op latencies and in
the fleet's tail percentiles.  A request that still fails after
``limit`` retries re-raises for the caller (the fleet books it as a
failed op; a closed-loop run treats it as fatal, matching a device
that exhausted the driver's retry budget).
"""

from __future__ import annotations

from repro.errors import TransientDeviceError


class RetryPolicy:
    """Retry a device submission up to *limit* times with backoff."""

    __slots__ = ("limit", "backoff")

    def __init__(self, limit: int, backoff_seconds: float):
        self.limit = int(limit)
        self.backoff = float(backoff_seconds)

    def run(self, fn):
        """Call ``fn()`` (returning latency seconds) with retries.

        Returns the successful attempt's latency plus the accumulated
        backoff of every failed attempt; re-raises the final
        :class:`TransientDeviceError` once the budget is exhausted.
        """
        penalty = 0.0
        attempt = 0
        while True:
            try:
                return fn() + penalty
            except TransientDeviceError:
                if attempt >= self.limit:
                    raise
                penalty += self.backoff * (2.0 ** attempt)
                attempt += 1
