"""Tests for the discrete-event scheduler and its tasks."""

from __future__ import annotations

import math

import pytest

from repro.core.clock import VirtualClock
from repro.errors import ConfigError
from repro.obs import Tracer
from repro.sim.scheduler import Scheduler, Task
from repro.workload.plan import EventAwareUntil


def make_scheduler():
    clock = VirtualClock()
    return Scheduler(clock), clock


class TestEventOrdering:
    def test_events_fire_in_time_order(self):
        sched, clock = make_scheduler()
        fired = []
        sched.schedule(0.3, lambda: fired.append("c"))
        sched.schedule(0.1, lambda: fired.append("a"))
        sched.schedule(0.2, lambda: fired.append("b"))
        sched.run()
        assert fired == ["a", "b", "c"]
        assert clock.now == pytest.approx(0.3)

    def test_ties_break_by_insertion_order(self):
        sched, _clock = make_scheduler()
        fired = []
        for name in "abcde":
            sched.schedule(0.5, lambda n=name: fired.append(n))
        sched.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sched, clock = make_scheduler()
        seen = []
        sched.schedule(1.5, lambda: seen.append(clock.now))
        sched.run()
        assert seen == [1.5]

    def test_cannot_schedule_in_the_past(self):
        sched, clock = make_scheduler()
        clock.advance(1.0)
        with pytest.raises(ConfigError):
            sched.schedule(-0.1, lambda: None)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf, True])
    def test_delay_must_be_a_finite_number(self, delay):
        # NaN compares false both ways, so a bare `delay < 0` let it
        # onto the heap, where it fired out of time order.
        sched, _clock = make_scheduler()
        with pytest.raises(ConfigError):
            sched.schedule(delay, lambda: None)
        assert sched._heap == []

    def test_next_time_is_the_earliest_pending_event(self):
        # The drivers' interleaving horizon: a live bound with no
        # sampling cap is the heap head.
        sched, clock = make_scheduler()
        horizon = EventAwareUntil(sched)
        assert horizon.snapshot() == math.inf
        sched.schedule(0.2, lambda: None)
        sched.schedule(0.1, lambda: sched.schedule(0.05, lambda: None))
        assert horizon.snapshot() == 0.1
        sched.run()
        assert horizon.snapshot() == math.inf and clock.now == 0.2

    def test_trace_records_time_seq_label(self):
        # The event timeline is the flight recorder's "sched" spans: one
        # per dispatched event, in (time, seq) order, stamped with the
        # event's time, its label and what the step consumed.
        sched, clock = make_scheduler()
        tracer = Tracer()
        tracer.enable()
        sched.obs_tracer = tracer

        def task():
            clock.advance(0.05)
            yield 0.0

        sched.schedule(0.2, lambda: None, label="late")
        sched.schedule(0.1, lambda: clock.advance(0.25), label="early")
        sched.schedule(0.2, lambda: None, label="late-tie")
        sched.spawn(task(), label="worker")
        sched.run()
        spans = [e for e in tracer.events() if e[4] == "sched"]
        # A task's own resumes carry no handle, hence the generic label.
        assert [e[3] for e in spans] == \
            ["worker", "task", "early", "late", "late-tie"]
        assert [e[1] for e in spans] == pytest.approx([0.0, 0.05, 0.1, 0.2, 0.2])
        assert [e[2] for e in spans] == pytest.approx([0.05, 0.0, 0.25, 0.0, 0.0])
        assert sched.events_run == len(spans) == tracer.emitted


class TestTasks:
    def test_task_delays_accumulate(self):
        sched, clock = make_scheduler()
        ticks = []

        def task():
            for _ in range(3):
                ticks.append(clock.now)
                yield 0.5

        sched.spawn(task())
        sched.run()
        assert ticks == pytest.approx([0.0, 0.5, 1.0])

    def test_captured_advance_becomes_completion_time(self):
        # Work done via clock.advance inside a step suspends the task
        # until its completion time, like a KV op's latency.
        sched, clock = make_scheduler()
        starts = []

        def client():
            for _ in range(2):
                starts.append(clock.now)
                clock.advance(0.25)  # the "operation latency"
                yield 0.0

        sched.spawn(client())
        sched.run()
        assert starts == pytest.approx([0.0, 0.25])
        assert clock.now == pytest.approx(0.5)

    def test_two_clients_overlap_in_time(self):
        sched, clock = make_scheduler()
        log = []

        def client(name, latency):
            for _ in range(2):
                log.append((name, clock.now))
                clock.advance(latency)
                yield 0.0

        sched.spawn(client("fast", 0.1))
        sched.spawn(client("slow", 0.35))
        sched.run()
        # The fast client's second op starts before the slow client's
        # first completes: the timeline interleaves.
        assert log == [("fast", 0.0), ("slow", 0.0),
                       ("fast", pytest.approx(0.1)), ("slow", pytest.approx(0.35))]

    def test_a_parked_task_costs_no_event_until_woken(self):
        # A bare yield parks: the heap drains around the parked task,
        # and each wake runs its next step at the waker's time, with
        # the task's label.  A task never stepped is parked at its
        # first step.
        sched, clock = make_scheduler()
        tracer = Tracer()
        tracer.enable()
        sched.obs_tracer = tracer
        steps = []

        def server():
            while True:
                steps.append(clock.now)
                yield

        task = Task(sched, server(), "server")
        sched.schedule(0.5, task.wake)
        sched.schedule(0.75, lambda: None)
        sched.schedule(2.0, task.wake)
        sched.run()
        assert steps == [0.5, 2.0]
        spans = [e for e in tracer.events() if e[4] == "sched"]
        assert [(e[1], e[3]) for e in spans] == [
            (0.5, "event"), (0.5, "server"), (0.75, "event"),
            (2.0, "event"), (2.0, "server")]
        assert sched.events_run == 5

    def test_invalid_yield_rejected(self):
        sched, _clock = make_scheduler()

        def task():
            yield "not a delay"

        sched.spawn(task())
        with pytest.raises(ConfigError):
            sched.run()

    @pytest.mark.parametrize("delay", [math.nan, math.inf, True, -1])
    def test_yielded_delay_must_be_a_finite_number(self, delay):
        # Each one used to run: NaN out of time order, inf moved the
        # clock to inf, True slept a second.  The task's earlier and
        # later steps never run past the refusal.
        sched, clock = make_scheduler()
        ran = []

        def task():
            yield 1.0
            ran.append(clock.now)
            yield delay
            ran.append("after")

        sched.spawn(task())
        with pytest.raises(ConfigError):
            sched.run()
        assert ran == [1.0] and clock.now == 1.0


class TestClockCapture:
    """The capture protocol, driven through the loop that implements it."""

    def test_offset_does_not_leak_into_global_time(self):
        sched, clock = make_scheduler()
        seen = []

        def step():
            clock.advance(0.5)
            seen.append(clock.now)  # step-local: event time + advance

        sched.schedule(1.0, step)
        sched.schedule(1.2, lambda: seen.append(clock.now))
        sched.run()
        # The second event still fires at its own time, and after the
        # run global time is the last event's time, not 1.5.
        assert seen == pytest.approx([1.5, 1.2])
        assert clock.now == pytest.approx(1.2)

    def test_capture_ends_when_an_event_raises(self):
        sched, clock = make_scheduler()

        def step():
            clock.advance(0.5)
            raise RuntimeError("boom")

        sched.schedule(1.0, step)
        with pytest.raises(RuntimeError):
            sched.run()
        assert clock.now == pytest.approx(1.0)
        clock.advance(0.25)  # inline again: moves global time
        assert clock.now == pytest.approx(1.25)
        assert sched.events_run == 0
