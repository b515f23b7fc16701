"""The deterministic discrete-event scheduler (DESIGN.md §4.1).

Events live on a heap keyed on ``(time, seq)``: ties in virtual time
are broken by insertion order, so a run is a pure function of the seed
and the configuration — no wall-clock time, thread scheduling or hash
ordering can perturb it.

Two kinds of work run on the timeline:

* **callbacks** — plain functions fired once at a scheduled time
  (:meth:`Scheduler.schedule`);
* **cooperative tasks** — generators that ``yield`` between steps
  (:meth:`Scheduler.spawn`).  Yielding a ``float`` suspends the task
  for that many virtual seconds; yielding a
  :class:`repro.sim.resources.Request` suspends it until the resource
  grants the request.

While an event runs, the shared :class:`~repro.core.clock.VirtualClock`
is in *capture* mode: ``clock.advance(dt)`` accumulates a step-local
offset instead of moving global time, so a key-value operation executed
inside one client's step observes a locally consistent ``clock.now``
while other clients' events remain pending at earlier global times.
The offset determines when the step's follow-up event fires, which is
how per-operation latency turns into client think/completion times.
:meth:`Scheduler.run` is the one loop and the one place that enters
and leaves capture mode; the timeline of dispatched events is the
flight recorder's ``sched`` spans (``Scheduler.obs_tracer``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Generator

from repro.core.clock import VirtualClock
from repro.errors import ConfigError
from repro.obs.tracer import NULL_TRACER


class Task:
    """A cooperative task: a generator stepped by the scheduler."""

    def __init__(self, scheduler: "Scheduler", gen: Generator, label: str):
        self._scheduler = scheduler
        self._gen = gen
        self._send = gen.send  # bound once: called every step
        self.label = label
        self._bound_step = self._step  # one bound-method alloc, reused

    def _step(self, send_value=None) -> None:
        """Run the generator to its next suspension point."""
        try:
            yielded = self._send(send_value)
        except StopIteration:
            return
        if type(yielded) is float and yielded >= 0.0:
            # The per-operation hot path: a clock read and a heap push.
            # The guard above is the negative-delay validation and the
            # follow-up reuses this task's one bound step.
            scheduler = self._scheduler
            clock = scheduler.clock
            now = clock._step_now if clock._capturing else clock._now
            heapq.heappush(scheduler._heap,
                           (now + yielded, next(scheduler._seq),
                            self._bound_step, "task"))
        else:
            self._suspend(yielded)

    def _suspend(self, yielded) -> None:
        # Plain float delays never reach here: _step schedules them
        # directly (the per-operation hot path).
        if isinstance(yielded, (int, float)):
            self._scheduler.schedule(float(yielded), self._step, label=self.label)
        elif hasattr(yielded, "_enqueue"):  # a Resource request
            yielded._enqueue(self)
        else:
            raise ConfigError(
                f"task {self.label!r} yielded {yielded!r}; tasks may yield a "
                "delay in seconds or a resource request"
            )

    def _resume(self) -> None:
        """Resume after a resource grant (called via a scheduled event)."""
        self._step(None)


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
        if delay < 0:
            raise ConfigError(f"cannot schedule an event {delay!r}s in the past")
        # now + a non-negative delay can never be in the past, so the
        # delay check is the only validation an event time needs.
        heapq.heappush(self._heap,
                       (self.clock.now + delay, next(self._seq), fn, label))

    def spawn(self, gen: Generator, label: str = "task",
              delay: float = 0.0) -> None:
        """Start a cooperative task; its first step runs after *delay*."""
        self.schedule(delay, Task(self, gen, label)._step, label=label)

    def run(self) -> None:
        """Run events in time order until the heap drains.

        This loop is the capture protocol (``core/clock.py`` only holds
        its three fields): before an event runs, global time jumps to
        the event's time — events pop in time order, so this never
        moves backwards — and ``clock.advance`` accumulates into the
        step-local time from there; after it, the step-local time
        falls back to global time, so what one client's step consumed
        never leaks into the time other tasks' pending events see.
        Steps cannot nest (one loop, one thread), so there is no
        re-entrancy guard.  The inner try/finally leaves capture mode
        even when an event raises; the outer one keeps ``events_run``
        honest then (the pool turns NoSpaceError into a reported
        outcome).
        """
        clock = self.clock
        heap = self._heap
        pop = heapq.heappop
        obs = self.obs_tracer
        obs_on = obs.enabled
        ran = 0
        try:
            while heap:
                time, _seq, fn, label = pop(heap)
                if time > clock._now:
                    clock._now = time
                clock._step_now = clock._now
                clock._capturing = True
                try:
                    fn()
                    if obs_on:
                        obs.span(label, "sched", time, clock._step_now - time)
                finally:
                    clock._step_now = clock._now
                    clock._capturing = False
                ran += 1
        finally:
            self.events_run += ran

    def next_time(self) -> float:
        """Virtual time of the earliest pending event (inf when idle):
        the batched drivers' interleaving horizon (DESIGN.md §7), which
        their per-op checks read straight off the heap head
        (:class:`~repro.workload.plan.EventAwareUntil`)."""
        heap = self._heap
        return heap[0][0] if heap else math.inf
