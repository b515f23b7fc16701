"""Key-selection distributions for workload generation.

The paper's default workload updates existing keys uniformly at random
(§3.2); zipfian and hotspot generators are provided for the broader
workload space (and for users of the library beyond the reproduction).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


class KeyChooser:
    """Interface: pick the next key from ``[0, nkeys)``.

    Contract relied on by the batched workload runner (DESIGN.md §6):
    ``batch(n)`` consumes the RNG exactly like ``n`` successive
    ``next_key()`` calls, so the batched drivers issue the key stream
    of a one-op-at-a-time loop, bit for bit, for every distribution.
    """

    def __init__(self, nkeys: int, rng: np.random.Generator):
        if nkeys <= 0:
            raise ConfigError("nkeys must be positive")
        self.nkeys = nkeys
        self.rng = rng

    def next_key(self) -> int:
        raise NotImplementedError

    def batch(self, count: int) -> np.ndarray:
        """Draw *count* keys at once (faster for tight loops)."""
        return np.fromiter(
            (self.next_key() for _ in range(count)), dtype=np.int64, count=count
        )


class UniformKeys(KeyChooser):
    """Uniform random keys (the paper's default update workload)."""

    def next_key(self) -> int:
        return int(self.rng.integers(0, self.nkeys))

    def batch(self, count: int) -> np.ndarray:
        return self.rng.integers(0, self.nkeys, size=count, dtype=np.int64)


class SequentialKeys(KeyChooser):
    """Keys in ascending order, wrapping around (the load pattern)."""

    def __init__(self, nkeys: int, rng: np.random.Generator):
        super().__init__(nkeys, rng)
        self._next = 0

    def next_key(self) -> int:
        key = self._next
        self._next = (self._next + 1) % self.nkeys
        return key

    def batch(self, count: int) -> np.ndarray:
        out = (np.arange(count, dtype=np.int64) + self._next) % self.nkeys
        self._next = (self._next + count) % self.nkeys
        return out


class ZipfianKeys(KeyChooser):
    """Zipf-distributed keys, scrambled so hot keys are spread out.

    Uses numpy's Zipf sampler with rejection of out-of-range ranks,
    then a multiplicative scramble so that popularity is not correlated
    with key order (YCSB's "scrambled zipfian").

    Rejection sampling is only efficient in bulk, so keys are drawn a
    ``REFILL``-sized block at a time into an internal buffer; both
    ``next_key`` and ``batch`` consume the same buffer in order, which
    keeps the scalar and batched drivers on one key stream (and stops
    scalar callers from paying a full vector draw per key).
    """

    #: Keys drawn per internal refill; scalar callers amortize the
    #: vector draw over this many next_key() calls.
    REFILL = 1024

    def __init__(self, nkeys: int, rng: np.random.Generator, theta: float = 1.2):
        super().__init__(nkeys, rng)
        if theta <= 1.0:
            raise ConfigError("numpy's zipf sampler requires theta > 1")
        self.theta = theta
        self._buffer = np.empty(0, dtype=np.int64)
        self._pos = 0

    def next_key(self) -> int:
        if self._pos >= len(self._buffer):
            self._refill()
        key = int(self._buffer[self._pos])
        self._pos += 1
        return key

    def batch(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            if self._pos >= len(self._buffer):
                self._refill()
            take = min(count - filled, len(self._buffer) - self._pos)
            out[filled : filled + take] = self._buffer[self._pos : self._pos + take]
            self._pos += take
            filled += take
        return out

    def _refill(self) -> None:
        """Rejection-sample one block of scrambled ranks into the buffer."""
        out = np.empty(self.REFILL, dtype=np.int64)
        filled = 0
        while filled < self.REFILL:
            draw = self.rng.zipf(self.theta, size=self.REFILL - filled)
            draw = draw[draw <= self.nkeys]
            take = len(draw)
            out[filled : filled + take] = draw - 1
            filled += take
        # Scramble rank -> key so hot keys are uniformly placed.
        self._buffer = (out * np.int64(2654435761)) % self.nkeys
        self._pos = 0


class HotspotKeys(KeyChooser):
    """A fraction of operations targets a small hot range."""

    def __init__(
        self,
        nkeys: int,
        rng: np.random.Generator,
        hot_fraction: float = 0.2,
        hot_probability: float = 0.8,
    ):
        super().__init__(nkeys, rng)
        if not 0 < hot_fraction <= 1 or not 0 <= hot_probability <= 1:
            raise ConfigError("hotspot parameters out of range")
        self.hot_keys = max(1, int(nkeys * hot_fraction))
        self.hot_probability = hot_probability

    def next_key(self) -> int:
        if self.rng.random() < self.hot_probability:
            return int(self.rng.integers(0, self.hot_keys))
        return int(self.rng.integers(self.hot_keys, self.nkeys))


_CHOOSERS: dict[str, type[KeyChooser]] = {
    "uniform": UniformKeys,
    "sequential": SequentialKeys,
    "zipfian": ZipfianKeys,
    "hotspot": HotspotKeys,
}

#: Names accepted by :func:`make_chooser`; spec layers validate
#: against this so a typo fails at construction, not mid-run.
DISTRIBUTIONS = frozenset(_CHOOSERS)


def make_chooser(name: str, nkeys: int, rng: np.random.Generator, **kwargs) -> KeyChooser:
    """Build a key chooser by name."""
    if name not in _CHOOSERS:
        raise ConfigError(f"unknown distribution {name!r}; expected one of {sorted(_CHOOSERS)}")
    return _CHOOSERS[name](nkeys, rng, **kwargs)
