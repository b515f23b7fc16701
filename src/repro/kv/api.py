"""The key-value store interface both engines implement.

Keys are 64-bit integers (the paper's 16-byte string keys are modeled
by an accounting ``key_bytes`` parameter in each engine's config);
values are :class:`~repro.kv.values.Value` descriptors.  All methods
that perform I/O return the synchronous (user-visible) latency in
virtual seconds and advance the shared clock by that amount, matching
the single-user-thread methodology of §3.2.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.errors import NoSpaceError
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

    ``put_many`` / ``get_many`` / ``delete_many`` / ``scan_many`` apply
    their operations *in order* with per-op clock advancement and are
    required to be bit-identical — clock, SMART counters, stats, and
    store state — to the equivalent sequence of per-op calls.
    ``put_many`` and ``scan_many`` are each engine's own (its per-op
    ``put``/``scan`` may share their body); ``get_many`` and
    ``delete_many`` default to the per-op loop below, which an engine
    overrides where batching pays.  Three further conventions let the
    batched workload drivers use these methods without losing the
    semantics of a driver that issues one per-op call at a time:

    * ``until``: stop after the first operation that carries the clock
      to or past this bound and return the count performed, so
      sampling callbacks fire at exactly the per-op call boundaries.
      The bound is checked strictly as ``clock.now >= until`` *after*
      each op — never cached, subtracted, or reordered — because it
      may be a live proxy rather than a float: the batched client pool
      passes :class:`repro.workload.plan.EventAwareUntil`, which
      consults the event scheduler on every comparison (DESIGN.md §7);
    * ``latencies``: when a list is passed, each completed operation
      appends its user-visible latency — the same float the per-op
      call would return — before the ``until`` check, so a batch cut
      short (or aborted by out-of-space) has appended exactly the
      completed ops;
    * on out-of-space, the raised :class:`NoSpaceError` carries the
      number of completed operations in ``ops_done`` (the in-flight
      op is not counted, matching a per-op loop that would have
      counted only completed calls).
    """

    name: str = "abstract"

    @abstractmethod
    def put(self, key: int, value: Value) -> float:
        """Insert or update a key; returns user-visible latency."""

    @abstractmethod
    def get(self, key: int) -> tuple[float, Value | None]:
        """Look up a key; returns (latency, value-or-None)."""

    @abstractmethod
    def delete(self, key: int) -> float:
        """Delete a key; returns user-visible latency."""

    @abstractmethod
    def scan(self, start_key: int, count: int) -> tuple[float, list[tuple[int, Value]]]:
        """Return up to *count* pairs with key >= start_key, in order."""

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

    def get_many(self, keys: Sequence[int], until: float | None = None,
                 latencies: list | None = None) -> int:
        """Look up a batch of keys; returns the operations performed.

        Lookups are issued for their timing/accounting side effects
        (this is the workload-driver surface); use :meth:`get` when the
        values themselves are needed.
        """
        clock = self.clock
        done = 0
        append = None if latencies is None else latencies.append
        try:
            for i in range(len(keys)):
                latency, _value = self.get(int(keys[i]))
                done += 1
                if append is not None:
                    append(latency)
                if until is not None and clock.now >= until:
                    break
        except NoSpaceError as exc:
            exc.ops_done = done
            raise
        return done

    def delete_many(self, keys: Sequence[int], until: float | None = None,
                    latencies: list | None = None) -> int:
        """Delete a batch of keys; returns the operations performed."""
        clock = self.clock
        done = 0
        append = None if latencies is None else latencies.append
        try:
            for i in range(len(keys)):
                latency = self.delete(int(keys[i]))
                done += 1
                if append is not None:
                    append(latency)
                if until is not None and clock.now >= until:
                    break
        except NoSpaceError as exc:
            exc.ops_done = done
            raise
        return done

    @abstractmethod
    def scan_many(self, start_keys: Sequence[int], count: int,
                  until: float | None = None,
                  latencies: list | None = None) -> int:
        """Issue a batch of scans; returns the operations performed."""

    @abstractmethod
    def flush(self) -> None:
        """Persist all buffered state (background device work)."""

    def attach_scheduler(self, scheduler) -> None:
        """Opt into event-driven background work (DESIGN.md §4.2).

        When a :class:`repro.sim.scheduler.Scheduler` is attached,
        engines run their background work (LSM flushes/compactions,
        B+Tree checkpoints) as scheduled tasks on its timeline instead
        of inline bookkeeping, so write stalls emerge from the event
        order.  The default is a no-op: engines that do not override
        this keep the seed's inline behaviour.
        """

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
