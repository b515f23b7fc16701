"""Byte and time unit helpers used across the library.

The simulator measures storage in bytes and time in (virtual) seconds.
These helpers exist so that configuration code reads like the paper
("a 400 GB drive", "a 10 MB cache") rather than like arithmetic.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB

USEC = 1e-6


def usec(n: float) -> float:
    """Return *n* microseconds expressed in seconds."""
    return n * USEC


def format_bytes(n: float) -> str:
    """Render a byte count with a binary-unit suffix, e.g. ``1.5 MiB``."""
    value = float(n)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or suffix == "TiB":
            if suffix == "B":
                return f"{int(value)} {suffix}"
            return f"{value:.2f} {suffix}"
        value /= 1024.0
    raise AssertionError("unreachable")
