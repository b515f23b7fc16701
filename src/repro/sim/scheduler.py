"""The deterministic discrete-event scheduler (DESIGN.md §4.1).

Events live on a heap keyed on ``(time, seq)``: ties in virtual time
are broken by insertion order, so a run is a pure function of the seed
and the configuration — no wall-clock time, thread scheduling or hash
ordering can perturb it.

Two kinds of work run on the timeline:

* **callbacks** — plain functions fired once at a scheduled time
  (:meth:`Scheduler.schedule`);
* **cooperative tasks** — generators that ``yield`` between steps
  (:meth:`Scheduler.spawn`).  Yielding a delay suspends the task for
  that many virtual seconds; a bare ``yield`` parks it, no event
  pending, until its owner calls :meth:`Task.wake`.  A delay is a
  finite, non-negative int or float: anything else raises
  :class:`~repro.errors.ConfigError`.

:meth:`Scheduler.run` is the one loop and it owns global time: it
sets the shared :class:`~repro.core.clock.VirtualClock`'s ``now`` to
an event's time before the event runs and restores global time after
it, so a key-value operation executed inside one client's step
advances ``clock.now`` from there while other clients' events remain
pending at earlier global times.  Where the step left ``clock.now``
is when its follow-up event fires, which is how per-operation latency
turns into client completion times.  The timeline of dispatched events
is the flight recorder's ``sched`` spans (``Scheduler.obs_tracer``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Generator

from repro.core.clock import VirtualClock
from repro.errors import ConfigError
from repro.obs.tracer import NULL_TRACER

_INF = math.inf


class Task:
    """A cooperative task: a generator stepped by the scheduler."""

    def __init__(self, scheduler: "Scheduler", gen: Generator, label: str):
        self._scheduler = scheduler
        self._send = gen.send  # bound once: called every step
        self.label = label
        self._bound_step = self._step  # one bound-method alloc, reused

    def _step(self, send_value=None) -> None:
        """Run the generator to its next suspension point."""
        try:
            yielded = self._send(send_value)
        except StopIteration:
            return
        if type(yielded) is float and 0.0 <= yielded < _INF:
            # The per-operation hot path: a clock read and a heap push.
            # The guard above is the delay validation (NaN fails both
            # compares) and the follow-up reuses this task's one bound
            # step.
            scheduler = self._scheduler
            heapq.heappush(scheduler._heap,
                           (scheduler.clock.now + yielded, next(scheduler._seq),
                            self._bound_step, "task"))
        else:
            self._suspend(yielded)

    def wake(self) -> None:
        """Schedule a parked task's next step now.  A task not yet
        stepped is parked at its first step: ``spawn`` wakes it."""
        self._scheduler.schedule(0.0, self._step, self.label)

    def _suspend(self, yielded) -> None:
        # Valid float delays never reach here: _step schedules them
        # directly (the per-operation hot path).
        if yielded is None:
            return  # parked: no event until wake()
        if not isinstance(yielded, (int, float)):
            raise ConfigError(
                f"task {self.label!r} yielded {yielded!r}; tasks may yield a "
                "delay in seconds or nothing (park)"
            )
        self._scheduler.schedule(yielded, self._step, label=self.label)


class Scheduler:
    """A discrete-event loop over a shared virtual clock."""

    def __init__(self, clock: VirtualClock):
        self.clock = clock
        # Heap entries are plain ``(time, seq, fn, label)`` tuples
        # (DESIGN.md §8): tuple comparison runs entirely in C and never
        # reaches the callable (``seq`` is unique), where an ``__lt__``
        # method would pay a Python dispatch on every sift step.  An
        # event, once scheduled, runs: nothing cancels one.
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self.events_run = 0
        # Flight recorder (repro.obs): the event timeline.  Emits one
        # "sched" span per dispatched event when enabled, nothing
        # otherwise (run() hoists the enabled flag).
        self.obs_tracer = NULL_TRACER

    def schedule(self, delay: float, fn: Callable[[], None],
                 label: str = "event") -> None:
        """Fire *fn* after *delay* virtual seconds."""
        if type(delay) is bool or not 0.0 <= delay < _INF:
            raise ConfigError(f"cannot schedule an event {delay!r}s from now: "
                              "a delay is finite and non-negative")
        # now + a finite non-negative delay can never be in the past,
        # so the delay check is the only validation an event time needs.
        heapq.heappush(self._heap,
                       (self.clock.now + delay, next(self._seq), fn, label))

    def spawn(self, gen: Generator, label: str = "task") -> None:
        """Start a cooperative task; its first step runs now."""
        Task(self, gen, label).wake()

    def run(self) -> None:
        """Run events in time order until the heap drains.

        Global time lives in a local here: before an event runs it
        jumps to the event's time — events pop in time order, so it
        never moves backwards — and ``clock.now`` is set to it, so
        ``clock.advance`` accumulates from there; after the event,
        ``clock.now`` is set back to global time, so what one client's
        step consumed never leaks into the time other tasks' pending
        events see.  Steps cannot nest (one loop, one thread), so there
        is no re-entrancy guard.  The inner try/finally restores global
        time even when an event raises; the outer one keeps
        ``events_run`` honest then (the pool turns NoSpaceError into a
        reported outcome).
        """
        clock = self.clock
        heap = self._heap
        pop = heapq.heappop
        obs = self.obs_tracer
        obs_on = obs.enabled
        now = clock.now
        ran = 0
        try:
            while heap:
                time, _seq, fn, label = pop(heap)
                if time > now:
                    now = time
                clock.now = now
                try:
                    fn()
                    if obs_on:
                        obs.span(label, "sched", time, clock.now - time)
                finally:
                    clock.now = now
                ran += 1
        finally:
            self.events_run += ran
