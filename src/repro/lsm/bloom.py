"""Bloom filters for SSTable point lookups.

RocksDB attaches a bloom filter to every SSTable so that point reads
skip files that cannot contain the key; without them a read would pay
one device read per level.  Filters (like index blocks) are assumed to
be resident in memory, so probing costs no device I/O — only misses
that pass the filter pay for a data-block read.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

# uint64 *array* arithmetic wraps mod 2^64 silently: no np.errstate.
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_S27, _S30, _S31, _ONE = (np.uint64(n) for n in (27, 30, 31, 1))

_MASK64 = (1 << 64) - 1


def _splitmix64_int(z: int) -> int:
    """SplitMix64 finalizer on a Python int (mod-2^64 arithmetic).

    Bit-identical to :func:`_splitmix64`; exists so single-key probes
    avoid numpy array round-trips on the read hot path.
    """
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def key_hashes(key: int) -> tuple[int, int]:
    """:func:`probe_matrix`'s ``(h1, h2)`` of one key as Python ints:
    geometry-free, so a point get hashes once for every filter."""
    raw = int(key) & _MASK64
    return (_splitmix64_int(raw),
            _splitmix64_int((raw + 0x9E3779B97F4A7C15) & _MASK64) | 1)


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a non-linear 64-bit mix.

    A purely multiplicative hash is linear modulo the (power-of-two)
    filter size, which makes keys congruent modulo ``nbits`` collide on
    *every* probe — catastrophic for integer key spaces.  The shifted
    xors break that linearity.
    """
    z = values.astype(np.uint64, copy=True)
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def probe_matrix(keys: np.ndarray, k: int) -> np.ndarray:
    """(len(keys), k) unmasked double-hash probe values ``h1 + i*h2``.

    The values depend only on the keys — never on a filter's geometry —
    so the LSM read index (:mod:`repro.lsm.version`) hashes a probe set
    once (one mix over ``[raw, raw + golden]``: h1, then h2) and masks
    the same matrix against every table's filter.
    """
    raw = np.asarray(keys).astype(np.uint64)
    h = _splitmix64(np.concatenate([raw, raw + _GOLDEN]))
    h1, h2 = h[:len(raw)], h[len(raw):] | _ONE
    return h1[:, None] + np.arange(k, dtype=np.uint64)[None, :] * h2[:, None]


class BloomFilter:
    """A classic k-hash bloom filter over int64 keys, vectorized."""

    def __init__(self, nkeys: int, bits_per_key: int):
        if bits_per_key <= 0:
            raise ConfigError("bits_per_key must be positive")
        self.nbits = max(64, nkeys * bits_per_key)
        # Round to a power of two so hashing can mask instead of modulo.
        self.nbits = 1 << int(np.ceil(np.log2(self.nbits)))
        self.k = max(1, min(16, int(round(0.69 * bits_per_key))))
        self._bits = np.zeros(self.nbits, dtype=bool)
        # Zero-copy; indexing it yields Python bools, not numpy scalars.
        self._bitview = memoryview(self._bits)

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """(len(keys), k) array of bit positions (double hashing)."""
        return probe_matrix(keys, self.k) & np.uint64(self.nbits - 1)

    def add_many(self, keys: np.ndarray) -> None:
        """Insert all keys."""
        if len(keys) == 0:
            return
        self._bits[self._positions(np.asarray(keys))] = True

    def may_contain(self, h1: int, h2: int) -> bool:
        """False means definitely absent; True means possibly present.

        Probes the key's :func:`key_hashes` at :meth:`_positions`'s k
        bits in order, stopping at the first clear one.
        """
        bits, mask = self._bitview, self.nbits - 1
        for i in range(self.k):
            if not bits[(h1 + i * h2) & mask]:
                return False
        return True
