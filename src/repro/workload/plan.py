"""The shared batch planner: RNG windows → same-kind op runs.

Every source of the driver (:mod:`repro.fleet.pool`) generates
operations the same way — each closed-loop client, and the open-loop
source, which hands a window out one op per arrival: one bulk RNG draw
per ``CHECK_EVERY`` window produces the window's keys and op-kind
draws, the kinds are split with a vectorized ``searchsorted`` against
the spec's cumulative fractions, and consecutive ops of the same kind
are segmented into runs that the engines' batch API (``put_many`` &
co.) can execute in one call (DESIGN.md §7).

The RNG contract is the one the batched runner has pinned since
DESIGN.md §6: ``chooser.batch(n)`` and ``op_rng.random(n)`` consume
the generators exactly like ``n`` scalar draws, so a planner-driven
window issues a bit-identical op stream to a one-op-at-a-time loop
(``tests/workload/reference_driver.py``, ``tests/fleet/
reference_fleet.py``) for the same substreams.

:class:`EventAwareUntil` is the second half of the shared layer: a
scheduler-aware ``until`` value for batch calls issued by one of
several clients.  The KVStore batch contract only requires ``until`` to
support ``clock.now >= until`` (Python evaluates that through the
proxy's ``__le__`` when ``until`` is not a float), which lets the
proxy consult the event heap *live*: a batch stops right after the
first operation whose completion reaches another pending event, so
queue-depth interleaving is preserved op for op (DESIGN.md §7.2).
"""

from __future__ import annotations

import math

import numpy as np

from repro import rng as rng_mod
from repro.kv.values import seeds_for
from repro.workload.keys import KeyChooser, make_chooser
from repro.workload.spec import WorkloadSpec

#: Op kinds, in the order of :meth:`WorkloadSpec.thresholds`
#: (searchsorted side="right": kind = number of thresholds <= draw,
#: which is a strict ``draw < threshold`` comparison chain).
READ, SCAN, DELETE, UPDATE = 0, 1, 2, 3


class OpRun:
    """A maximal run of consecutive same-kind operations."""

    __slots__ = ("kind", "keys")

    def __init__(self, kind: int, keys: np.ndarray):
        self.kind = kind
        self.keys = keys

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpRun(kind={self.kind}, n={len(self.keys)})"


class BatchPlanner:
    """Draws op windows and segments them into same-kind runs.

    One planner instance owns one client's key/op RNG substreams; each
    :meth:`plan` call draws the next *n* operations of that client's
    stream.  Update versions are *not* assigned here — they advance
    with completed ops, which only the consuming driver knows (a run
    can be cut short by ``until``), so drivers pass their live version
    counter to :func:`update_seeds` per run.
    """

    def __init__(self, spec: WorkloadSpec, chooser: KeyChooser,
                 op_rng: np.random.Generator):
        self.spec = spec
        self.chooser = chooser
        self.op_rng = op_rng
        self.thresholds = np.array(spec.thresholds())
        self._update_only = self.thresholds[-1] == 0.0

    @classmethod
    def for_client(cls, spec: WorkloadSpec, seed: int,
                   client_id: int = 0) -> BatchPlanner:
        """Client *client_id*'s planner on its own RNG substreams.

        Client 0 — and the open-loop fleet's source — draws from
        ``workload-keys`` / ``workload-ops``; client *i* > 0 from
        ``client{i}-keys`` / ``client{i}-ops``: statistically
        independent, deterministic per seed.
        """
        prefix = "workload" if client_id == 0 else f"client{client_id}"
        key_rng = rng_mod.substream(seed, f"{prefix}-keys")
        op_rng = rng_mod.substream(seed, f"{prefix}-ops")
        return cls(spec, make_chooser(spec.distribution, spec.nkeys, key_rng),
                   op_rng)

    def ops(self, window: int):
        """The stream as ``(kind, key)`` pairs, one op at a time, drawn
        *window* ops per :meth:`plan` call; it never ends."""
        while True:
            for run in self.plan(window):
                kind = run.kind
                for key in run.keys.tolist():
                    yield kind, key

    def plan(self, n: int) -> list[OpRun]:
        """The next *n* ops of the stream, as same-kind runs in order."""
        keys = self.chooser.batch(n)
        draws = self.op_rng.random(n)
        if self._update_only:
            # The paper's default workload: every draw is an update.
            # The draw itself still happens so the RNG stream stays
            # aligned with the mixed-workload (and scalar) paths.
            return [OpRun(UPDATE, keys)]
        kinds = np.searchsorted(self.thresholds, draws, side="right").tolist()
        runs: list[OpRun] = []
        i = 0
        while i < n:
            kind = kinds[i]
            j = i + 1
            while j < n and kinds[j] == kind:
                j += 1
            runs.append(OpRun(kind, keys[i:j]))
            i = j
        return runs


def update_seeds(keys: np.ndarray, version: int) -> np.ndarray:
    """Value seeds for an update run starting at *version*.

    Versions increment per update in stream order, so a run of
    ``len(keys)`` updates beginning at *version* covers
    ``[version, version + len(keys))`` — exactly a per-op loop's
    ``version += 1`` per put.
    """
    return seeds_for(keys, np.arange(version, version + len(keys)))


class EventAwareUntil:
    """A live ``until`` bound: the sample boundary or any pending event.

    Compares like a float against ``clock.now`` (the batch methods'
    ``now >= until`` check reaches :meth:`__le__` by reflection), but
    is evaluated fresh at every check: ``cap`` is the driver's next
    sampling boundary (or None) and the time of the scheduler's next
    event (its heap head) is read live, so events scheduled *during*
    the batch interrupt it too.
    """

    __slots__ = ("cap", "_heap")

    def __init__(self, scheduler):
        self.cap = None
        # The scheduler's heap list is mutated in place for the
        # scheduler's whole lifetime, so holding a direct reference is
        # safe — and saves two attribute hops plus a method call on
        # every per-op comparison (the hottest line under queue depth).
        self._heap = scheduler._heap

    def snapshot(self) -> float:
        """The bound as a plain float, valid while the heap is frozen.

        An engine replay loop that provably schedules no events (pure
        accounting between device events, e.g. the LSM write replay)
        may hoist the live bound out of its per-op path: with the heap
        unchanged, ``reached(now)`` is exactly ``now >= min(cap, next
        event time)``.  Never cache this across operations that can
        touch the scheduler.
        """
        heap = self._heap
        next_time = heap[0][0] if heap else math.inf
        cap = self.cap
        return next_time if cap is None or next_time < cap else cap

    # `clock.now >= until` → float.__ge__ returns NotImplemented for a
    # non-float → Python falls back to until.__le__(clock.now).  That
    # is the hot path (`__le__` avoids materializing the bound); the
    # other operators are defined through :meth:`snapshot` so every
    # comparison agrees with a plain float exactly — including at
    # boundary equality, where a strictness mix-up would silently cut
    # batches one op early.
    def __le__(self, now) -> bool:
        cap = self.cap
        if cap is not None and now >= cap:
            return True
        heap = self._heap  # entries are (time, seq, fn, label)
        if heap:
            return heap[0][0] <= now
        return False

    def __lt__(self, now) -> bool:
        return self.snapshot() < now

    def __ge__(self, now) -> bool:
        return not self.snapshot() < now

    def __gt__(self, now) -> bool:
        return not self.__le__(now)
