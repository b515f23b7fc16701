"""Per-op latency attribution (DESIGN.md §9.2).

Each user-visible operation's latency is decomposed into additive
components; the residual (latency minus everything the instrumented
layers claimed) is booked as ``cpu_other``, which makes the components
sum to the recorded latency *exactly* — the invariant the trace
schema checker (``tests/obs/schema.py``) and the acceptance tests pin.
"""

from __future__ import annotations

#: Component order, fixed so tables and traces render consistently.
#: ``cpu_other`` is the residual and must stay last.
ATTRIBUTION_COMPONENTS = (
    "device_service",  # flash cell/bus time an op would pay on an idle device
    "queueing",        # waiting behind other host work at the device
    "gc_wait",         # the share of queueing caused by GC relocation traffic
    "write_stall",     # engine-imposed throttling (LSM slowdown/stop)
    "cpu_other",       # residual: host CPU overheads and unattributed time
)


class AttributionTable:
    """Aggregates per-op component breakdowns by operation kind."""

    def __init__(self):
        self._rows: dict[str, dict] = {}

    def add(self, kind: str, latency: float, components: dict) -> None:
        row = self._rows.get(kind)
        if row is None:
            row = self._rows[kind] = {
                "ops": 0,
                "latency_seconds": 0.0,
                "components": {name: 0.0 for name in ATTRIBUTION_COMPONENTS},
            }
        row["ops"] += 1
        row["latency_seconds"] += latency
        comp = row["components"]
        for name, seconds in components.items():
            comp[name] = comp.get(name, 0.0) + seconds

    def __bool__(self) -> bool:
        return bool(self._rows)

    def as_dict(self) -> dict:
        """A JSON-ready snapshot: {kind: {ops, latency_seconds, components}}."""
        return {
            kind: {
                "ops": row["ops"],
                "latency_seconds": row["latency_seconds"],
                "components": dict(row["components"]),
            }
            for kind, row in sorted(self._rows.items())
        }


def render_attribution(attribution: dict, title: str = "") -> str:
    """Render an attribution dict (one cell) as an aligned text table.

    Component columns show the mean per-op seconds and the share of
    the kind's total latency, so "which ops paid for GC?" is one look.
    """
    from repro.core.report import render_table

    headers = ["op", "ops", "mean_lat_s"]
    for name in ATTRIBUTION_COMPONENTS:
        headers.append(name)
        headers.append("%")
    rows = []
    for kind, row in sorted(attribution.items()):
        ops = row["ops"]
        total = row["latency_seconds"]
        out = [kind, str(ops), _fmt(total / ops if ops else 0.0)]
        for name in ATTRIBUTION_COMPONENTS:
            seconds = row["components"].get(name, 0.0)
            out.append(_fmt(seconds / ops if ops else 0.0))
            out.append(f"{100.0 * seconds / total:.1f}" if total else "0.0")
        rows.append(out)
    table = render_table(headers, rows)
    return f"{title}\n{table}" if title else table


def _fmt(seconds: float) -> str:
    return f"{seconds * 1e6:.1f}u" if seconds < 1e-3 else f"{seconds * 1e3:.3f}m"
