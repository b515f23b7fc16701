"""The flight recorder's core: ``Tracer`` and the no-op ``NullTracer``.

Zero-overhead-when-off contract (DESIGN.md §9.3): every layer holds a
tracer reference defaulting to :data:`NULL_TRACER`.  Hot paths hoist
``tracer.enabled`` into a local once and guard *all* instrumentation
behind it, so with tracing off no event tuples, dicts or clock reads
happen — the instrumented code executes the identical arithmetic it
did before the tracer existed, keeping sim fingerprints byte-identical
(pinned by tests).  The tracer is purely observational: it never
touches the clock, the RNG streams, or any device state, so enabling
it changes no simulated result either.

Op attribution protocol: a driver calls :meth:`Tracer.op_begin` before
executing one user-visible operation; instrumented layers then call
:meth:`Tracer.add` to claim seconds of the op's latency for a
component; :meth:`Tracer.op_end` books the residual as ``cpu_other``
(components therefore sum to the recorded latency exactly), feeds the
:class:`~repro.obs.attribution.AttributionTable`, and emits the op
span.  Work that runs on behalf of an op but whose latency is *not*
part of the op's user-visible latency (inline-mode flush/compaction)
is bracketed with :meth:`op_suspend`/:meth:`op_resume` so its device
components don't pollute the op's breakdown.
"""

from __future__ import annotations

from repro.obs.attribution import AttributionTable
from repro.obs.sink import RingSink


class NullTracer:
    """Shared do-nothing tracer; the default wired into every layer.

    ``enabled`` is a plain class attribute (always ``False``) so the
    hot-path guard ``if tracer.enabled:`` is one attribute load.
    """

    enabled = False
    in_op = False
    tid = 0
    shard = None

    def enable(self):  # pragma: no cover - trivial
        pass

    def disable(self):  # pragma: no cover - trivial
        pass

    def span(self, name, cat, t0, dur, args=None):
        pass

    def instant(self, name, cat, args=None):
        pass

    def counter(self, name, values):
        pass

    def op_begin(self, tid=None):
        pass

    def add(self, component, seconds):
        pass

    def op_suspend(self):
        pass

    def op_resume(self):
        pass

    def op_end(self, kind, t0, latency):
        pass

    def op_write(self, kind, t0, latency, penalty):
        pass


#: The process-wide no-op tracer every layer defaults to.
NULL_TRACER = NullTracer()


class Tracer:
    """Records typed events on the virtual clock and attributes latency.

    Constructed *disabled*; :meth:`enable` is called when measurement
    starts (``MetricsCollector.start_measurement``) so load phases emit
    nothing and attribution covers the measured phase only.
    """

    def __init__(self, clock=None, ring_capacity: int = 200_000):
        self.clock = clock
        self.sink = RingSink(ring_capacity)
        self.attribution = AttributionTable()
        self.emitted = 0  # events handed to the sink
        self.enabled = False
        self.in_op = False
        self.tid = 0
        self.shard = None  # fleet runs: shard id stamped onto op spans
        self._comp: dict[str, float] = {}
        self._suspended = False

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self.in_op = False

    def events(self):
        return self.sink.events()

    @property
    def dropped(self) -> int:
        """Emitted events the sink no longer holds (ring overflow)."""
        return self.emitted - len(self.sink)

    # -- raw events ----------------------------------------------------
    def span(self, name, cat, t0, dur, args=None) -> None:
        """A completed interval: ``[t0, t0 + dur]`` in virtual seconds."""
        self.emitted += 1
        self.sink.append(("X", t0, dur, name, cat, self.tid, args))

    def instant(self, name, cat, args=None) -> None:
        """A point event stamped at the current virtual time."""
        self.emitted += 1
        self.sink.append(("i", self.clock.now, 0.0, name, cat, self.tid, args))

    def counter(self, name, values) -> None:
        """A counter sample: *values* is a dict of series name -> value."""
        self.emitted += 1
        self.sink.append(("C", self.clock.now, 0.0, name, "counter", self.tid, values))

    # -- op attribution context ----------------------------------------
    def op_begin(self, tid=None) -> None:
        """Open the attribution context for one user-visible op."""
        if tid is not None:
            self.tid = tid
        self.in_op = True
        self._suspended = False
        self._comp = {}

    def add(self, component: str, seconds: float) -> None:
        """Claim *seconds* of the current op's latency for *component*.

        Outside an op context (background work: flush tasks,
        compactions, GC-triggered device writes running as their own
        scheduler events) this is a no-op — background device time is
        visible as its own spans, not as op components.
        """
        if self.in_op:
            comp = self._comp
            comp[component] = comp.get(component, 0.0) + seconds

    def op_suspend(self) -> None:
        """Stop claiming components (inline background work follows)."""
        self._suspended = self.in_op
        self.in_op = False

    def op_resume(self) -> None:
        """Resume the op context after :meth:`op_suspend`."""
        self.in_op = self._suspended
        self._suspended = False

    def op_end(self, kind: str, t0: float, latency: float) -> None:
        """Close the op context: book the residual, emit the op span."""
        comp = self._comp
        residual = latency - sum(comp.values())
        comp["cpu_other"] = comp.get("cpu_other", 0.0) + residual
        self.attribution.add(kind, latency, comp)
        args = {"total": latency}
        if self.shard is not None:
            args["shard"] = self.shard
        args.update(comp)
        self.emitted += 1
        self.sink.append(("X", t0, latency, f"op:{kind}", "op", self.tid, args))
        self.in_op = False
        self._comp = {}

    def op_write(self, kind: str, t0: float, latency: float,
                 penalty: float) -> None:
        """Batched-write fast path: one call replaces begin/add/end.

        The LSM batch replay computes op latencies from cached
        constants without calling into the device per op, so the only
        attributable component it knows is the stall *penalty*; the
        rest is the op's fixed engine cost, booked as ``cpu_other``.
        """
        if penalty > 0.0:
            comp = {"write_stall": penalty, "cpu_other": latency - penalty}
        else:
            comp = {"cpu_other": latency}
        self.attribution.add(kind, latency, comp)
        args = {"total": latency}
        if self.shard is not None:
            args["shard"] = self.shard
        args.update(comp)
        self.emitted += 1
        self.sink.append(("X", t0, latency, f"op:{kind}", "op", self.tid, args))


def attach_tracer(tracer, clock=None, ssd=None, store=None) -> None:
    """Bind *tracer* into an assembled stack's layers.

    Accepts whatever subset of the stack the caller has; layers not
    passed keep their :data:`NULL_TRACER` default.  Passing ``None``
    as the tracer is allowed and leaves everything untouched, so call
    sites don't need their own guard.
    """
    if tracer is None:
        return
    if clock is not None:
        tracer.clock = clock
    if ssd is not None:
        ssd.tracer = tracer
        ftl = getattr(ssd, "ftl", None)
        if ftl is not None:
            ftl.tracer = tracer
    if store is not None:
        store.tracer = tracer
        executor = getattr(store, "executor", None)
        if executor is not None:
            executor.tracer = tracer
