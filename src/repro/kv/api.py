"""The key-value store interface both engines implement.

Keys are 64-bit integers (the paper's 16-byte string keys are modeled
by an accounting ``key_bytes`` parameter in each engine's config);
values are :class:`~repro.kv.values.Value` descriptors.  Every
operation advances the shared clock by its synchronous (user-visible)
latency in virtual seconds, matching the single-user-thread
methodology of §3.2: a per-op call returns it, a batch call appends it
to ``latencies``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.kv.stats import KVStats
from repro.kv.values import Value


def as_int_list(values: Sequence[int]) -> list[int]:
    """A key/seed sequence as a plain list of python ints.

    The engines' batch fast paths index their inputs one op at a time,
    where numpy scalar extraction costs more than the loop body; the
    batched drivers therefore pass plain lists through unchanged, numpy
    arrays convert via ``tolist``, and anything else is materialized
    element-wise.  Called once per batch call, never per op.
    """
    if type(values) is list:
        return values
    if hasattr(values, "tolist"):
        return values.tolist()
    return [int(value) for value in values]


class KVStore(ABC):
    """Abstract persistent key-value store.

    Concrete stores expose a ``clock`` attribute (the shared
    :class:`~repro.core.clock.VirtualClock`); the batch methods below
    rely on it to honour their ``until`` boundary.

    Batch API contract (DESIGN.md §6)
    =================================

    Each engine has one body per op kind, its ``put_many`` /
    ``get_many`` / ``delete_many`` / ``scan_many``.  A batch applies
    its operations *in order* with per-op clock advancement and is
    required to be bit-identical — clock, SMART counters, stats, and
    store state — to n one-op batches.  The per-op ``put`` / ``get`` /
    ``delete`` / ``scan`` are defined once, here, as exactly those
    one-op batches.  Three further conventions let the batched
    workload drivers use these methods without losing the semantics of
    a driver that issues one op at a time:

    * ``until``: stop after the first operation that carries the clock
      to or past this bound and return the count performed, so
      sampling callbacks fire at exactly the per-op call boundaries.
      The bound is checked strictly as ``clock.now >= until`` *after*
      each op — never cached, subtracted, or reordered — because it
      may be a live proxy rather than a float: the batched client pool
      passes :class:`repro.workload.plan.EventAwareUntil`, which
      consults the event scheduler on every comparison (DESIGN.md §7);
    * ``latencies``: when a list is passed, each completed operation
      appends its user-visible latency — the float a one-op batch
      reports — before the ``until`` check, so a batch cut short (or
      aborted by out-of-space) has appended exactly the completed ops;
    * on out-of-space, the raised :class:`~repro.errors.NoSpaceError`
      carries the number of completed operations in ``ops_done``
      (the in-flight op is not counted).
    """

    name: str = "abstract"

    def put(self, key: int, value: Value) -> float:
        """Insert or update a key; returns user-visible latency."""
        latencies: list = []
        self.put_many([key], [value.seed], value.length, latencies=latencies)
        return latencies[0]

    def get(self, key: int) -> tuple[float, Value | None]:
        """Look up a key; returns (latency, value-or-None)."""
        latencies: list = []
        values: list = []
        self.get_many([key], latencies=latencies, out=values)
        return latencies[0], values[0]

    def delete(self, key: int) -> float:
        """Delete a key; returns user-visible latency."""
        latencies: list = []
        self.delete_many([key], latencies=latencies)
        return latencies[0]

    def scan(self, start_key: int, count: int) -> tuple[float, list[tuple[int, Value]]]:
        """Return up to *count* pairs with key >= start_key, in order."""
        latencies: list = []
        pairs: list = []
        self.scan_many([start_key], count, latencies=latencies, out=pairs)
        return latencies[0], pairs

    # ------------------------------------------------------------------
    # Batch API (see class docstring for the contract)
    # ------------------------------------------------------------------
    @abstractmethod
    def put_many(self, keys: Sequence[int], vseeds: Sequence[int],
                 vlen: int, until: float | None = None,
                 latencies: list | None = None) -> int:
        """Insert/update a batch; returns the operations performed.

        ``keys`` and ``vseeds`` are parallel sequences (numpy arrays on
        the hot path — see :func:`repro.kv.values.seeds_for`); ``vlen``
        is the one value length all of them share.
        """

    @abstractmethod
    def get_many(self, keys: Sequence[int], until: float | None = None,
                 latencies: list | None = None,
                 out: list | None = None) -> int:
        """Look up a batch of keys; returns the operations performed.

        *out*, when given, receives each lookup's value (None for an
        absent key).
        """

    @abstractmethod
    def delete_many(self, keys: Sequence[int], until: float | None = None,
                    latencies: list | None = None) -> int:
        """Delete a batch of keys; returns the operations performed."""

    @abstractmethod
    def scan_many(self, start_keys: Sequence[int], count: int,
                  until: float | None = None,
                  latencies: list | None = None,
                  out: list | None = None) -> int:
        """Issue a batch of scans; returns the operations performed.

        *out*, when given, receives the scans' ``(key, Value)`` pairs.
        """

    @abstractmethod
    def flush(self) -> None:
        """Persist all buffered state (background device work)."""

    @abstractmethod
    def close(self) -> None:
        """Flush and mark the store closed."""

    @property
    @abstractmethod
    def stats(self) -> KVStats:
        """Cumulative application-level statistics."""

    def counters(self) -> dict:
        """Every counter block of this store as one layer-labelled
        dict (``{"kv.puts": ...}``); engines add their internal blocks."""
        return self.stats.labelled()

    @property
    @abstractmethod
    def disk_bytes_used(self) -> int:
        """Bytes of filesystem space the store currently occupies."""
