"""Unit tests for the flight recorder core: tracer, sinks, exporter."""

from __future__ import annotations

import json

import pytest

from repro.core.clock import VirtualClock
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    RingSink,
    Tracer,
    attach_tracer,
    write_chrome_trace,
)
from repro.obs.schema import validate_chrome_trace


class TestNullTracer:
    def test_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        # One flag and nothing else: a call that skipped the
        # ``if tracer.enabled:`` guard fails instead of costing time.
        for name in ("span", "instant", "counter", "op_begin", "add",
                     "op_suspend", "op_resume", "op_end", "op_write",
                     "enable", "disable", "in_op"):
            with pytest.raises(AttributeError):
                getattr(NULL_TRACER, name)

    def test_shared_instance(self):
        assert isinstance(NULL_TRACER, NullTracer)
        # The class attribute keeps the hot-path guard a single load.
        assert NullTracer.enabled is False


class TestOpAttribution:
    def test_residual_books_to_cpu_other(self):
        tracer = Tracer(clock=VirtualClock())
        tracer.enable()
        tracer.op_begin(tid=3)
        tracer.add("device_service", 0.2)
        tracer.add("queueing", 0.3)
        tracer.op_end("read", 1.0, 1.0)
        (event,) = list(tracer.events())
        ph, t0, dur, name, cat, tid, args = event
        assert (ph, name, cat, tid) == ("X", "op:read", "op", 3)
        assert (t0, dur) == (1.0, 1.0)
        assert args["total"] == 1.0
        assert args["cpu_other"] == pytest.approx(0.5)
        total = sum(v for k, v in args.items() if k != "total")
        assert total == pytest.approx(args["total"])

    def test_add_outside_op_is_dropped(self):
        tracer = Tracer(clock=VirtualClock())
        tracer.enable()
        tracer.add("queueing", 5.0)  # background work, no op context
        tracer.op_begin()
        tracer.op_end("update", 0.0, 1.0)
        (event,) = list(tracer.events())
        args = event[-1]
        assert "queueing" not in args
        assert args["cpu_other"] == pytest.approx(1.0)

    def test_suspend_resume_brackets_inline_background_work(self):
        tracer = Tracer(clock=VirtualClock())
        tracer.enable()
        tracer.op_begin()
        tracer.add("device_service", 0.1)
        tracer.op_suspend()
        tracer.add("device_service", 99.0)  # inline flush: not the op's
        tracer.op_resume()
        tracer.add("queueing", 0.2)
        tracer.op_end("update", 0.0, 1.0)
        (event,) = list(tracer.events())
        args = event[-1]
        assert args["device_service"] == pytest.approx(0.1)
        assert args["queueing"] == pytest.approx(0.2)

    def test_op_write_fast_path(self):
        tracer = Tracer(clock=VirtualClock())
        tracer.enable()
        tracer.op_write("update", 2.0, 1.0, 0.25)
        tracer.op_write("update", 3.0, 0.5, 0.0)
        events = list(tracer.events())
        assert events[0][-1] == {"total": 1.0, "write_stall": 0.25,
                                 "cpu_other": 0.75}
        assert events[1][-1] == {"total": 0.5, "cpu_other": 0.5}
        table = tracer.attribution.as_dict()
        assert table["update"]["ops"] == 2
        assert table["update"]["latency_seconds"] == pytest.approx(1.5)

    def test_instants_and_counters_stamp_the_virtual_clock(self):
        clock = VirtualClock()
        tracer = Tracer(clock=clock)
        tracer.enable()
        clock.advance(1.5)
        tracer.instant("gc_reclaim", "gc", {"victim": 7})
        tracer.counter("channel_occupancy", {"busy": 0.5})
        instant, counter = list(tracer.events())
        assert instant[0] == "i" and instant[1] == 1.5
        assert counter[0] == "C" and counter[1] == 1.5


class TestSinks:
    def test_ring_bound(self):
        sink = RingSink(capacity=10)
        for i in range(25):
            sink.append(("i", float(i), 0.0, "e", "c", 0, None))
        events = list(sink.events())
        assert len(events) == 10
        assert events[0][1] == 15.0  # oldest retained

    def test_ring_overflow_is_reported(self):
        """Every emitting method counts, so the tracer can say how many
        events a 10-event ring evicted — and 0 while it still fits."""
        clock = VirtualClock()
        tracer = Tracer(clock=clock, ring_capacity=10)
        tracer.enable()
        for i in range(4):
            tracer.span("wal_append", "lsm", float(i), 0.1)
        assert (tracer.emitted, tracer.dropped) == (4, 0)
        for i in range(7):
            tracer.instant("gc_reclaim", "gc")
            tracer.counter("channel_occupancy", {"busy": 0.5})
            tracer.op_begin()
            tracer.op_end("read", float(i), 0.2)
            tracer.op_write("update", float(i), 0.2, 0.0)
        assert tracer.emitted == 4 + 7 * 4
        assert len(list(tracer.events())) == 10
        assert tracer.dropped == 22


class TestAttach:
    def test_none_tracer_is_a_no_op(self, tiny_ssd):
        attach_tracer(None, ssd=tiny_ssd)
        assert tiny_ssd.tracer is NULL_TRACER

    def test_binds_every_layer_passed(self, tiny_ssd):
        tracer = Tracer()
        clock = tiny_ssd.clock
        attach_tracer(tracer, clock=clock, ssd=tiny_ssd)
        assert tracer.clock is clock
        assert tiny_ssd.tracer is tracer
        if tiny_ssd.ftl is not None:
            assert tiny_ssd.ftl.tracer is tracer


class TestChromeExport:
    def _tracer_with_ops(self):
        tracer = Tracer(clock=VirtualClock())
        tracer.enable()
        tracer.op_begin(tid=1)
        tracer.add("device_service", 0.0004)
        tracer.op_end("update", 0.0, 0.001)
        tracer.instant("memtable_flush", "lsm", {"bytes": 1 << 20})
        tracer.counter("channel_occupancy", {"busy_max_s": 0.25})
        return tracer

    def test_export_scales_to_microseconds(self, tmp_path):
        path = str(tmp_path / "trace.json")
        tracer = self._tracer_with_ops()
        count = write_chrome_trace(tracer.events(), path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        assert count == len(events)
        ops = [e for e in events if e.get("cat") == "op"]
        assert ops[0]["dur"] == pytest.approx(1000.0)  # 1 ms -> 1000 us
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "thread_name" for e in meta)

    def test_schema_checker_accepts_export(self, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(self._tracer_with_ops().events(), path,
                           attribution={"update": {"ops": 1}})
        assert validate_chrome_trace(path) == []

    def test_schema_checker_rejects_bad_sums_and_empty(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": [
                {"ph": "X", "ts": 0, "dur": 1, "name": "op:read",
                 "cat": "op", "pid": 1, "tid": 0,
                 "args": {"total": 1.0, "queueing": 0.2}},
            ]}, fh)
        errors = validate_chrome_trace(path)
        assert any("components sum" in e for e in errors)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": []}, fh)
        assert any("no op spans" in e for e in validate_chrome_trace(path))
