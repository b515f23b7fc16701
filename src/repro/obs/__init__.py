"""Flight recorder: structured tracing with per-op latency attribution.

The observability substrate (DESIGN.md §9).  Every layer of the stack
holds a tracer reference that defaults to :data:`NULL_TRACER`, a
shared object that is only an ``enabled`` flag set to ``False`` —
instrumentation sites hoist that flag into a local and skip all event
construction when it is off, so a run without tracing executes the
exact same arithmetic (and produces byte-identical fingerprints) as
before the tracer existed.

A real :class:`Tracer` records typed span/instant/counter events
stamped on the virtual clock into a bounded ring and accumulates a
per-op latency attribution table: each user-visible operation's
latency decomposed into device-service, queueing, GC-interference,
write-stall and residual CPU components.
"""

from repro.obs.attribution import (
    ATTRIBUTION_COMPONENTS, AttributionTable, render_attribution,
)
from repro.obs.export import write_chrome_trace
from repro.obs.sink import RingSink
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer, attach_tracer

__all__ = [
    "ATTRIBUTION_COMPONENTS",
    "AttributionTable",
    "NULL_TRACER",
    "NullTracer",
    "RingSink",
    "Tracer",
    "attach_tracer",
    "render_attribution",
    "write_chrome_trace",
]
