"""Value descriptors.

Key-value payloads are represented by ``(seed, length)`` descriptors
instead of real byte strings: the simulator only needs byte *counts*
for I/O accounting, and carrying hundreds of megabytes of synthetic
payload through compactions would dominate memory and run time for no
benefit.  When actual bytes are needed (functional tests, examples),
:func:`materialize` regenerates them deterministically from the seed,
so round-trips remain verifiable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class Value:
    """A key-value payload: deterministic content of ``length`` bytes."""

    seed: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ConfigError("value length cannot be negative")


def materialize(value: Value) -> bytes:
    """Regenerate the payload bytes of a value descriptor."""
    if value.length == 0:
        return b""
    return np.random.default_rng(value.seed & 0xFFFFFFFFFFFFFFFF).bytes(value.length)


def value_seed(key: int, version: int) -> int:
    """The payload seed of (key, version)'s value."""
    return (key * 0x9E3779B97F4A7C15 + version * 0xC2B2AE3D27D4EB4F) & 0xFFFFFFFFFFFFFFFF


def value_for(key: int, version: int, length: int) -> Value:
    """A deterministic value for (key, version): workloads use this so
    that every write of a key has distinguishable, reproducible content."""
    return Value(seed=value_seed(key, version), length=length)


_KEY_MULT = np.uint64(0x9E3779B97F4A7C15)
_VERSION_MULT = np.uint64(0xC2B2AE3D27D4EB4F)


def seeds_for(keys: np.ndarray, versions: np.ndarray | int) -> np.ndarray:
    """Vectorized :func:`value_seed` for whole key batches.

    ``seeds_for(keys, versions)[i]`` equals
    ``value_seed(keys[i], versions[i])`` bit for bit (1-d *keys*: uint64
    array arithmetic wraps silently, as the masked Python-int arithmetic
    does), so the batched workload runner produces the exact payload
    stream of the scalar path.
    """
    k = np.asarray(keys, dtype=np.int64).astype(np.uint64)
    v = np.asarray(versions, dtype=np.int64).astype(np.uint64)
    return k * _KEY_MULT + v * _VERSION_MULT
