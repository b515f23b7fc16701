"""Outside-in layer tracer: host time per layer without touching ``src/``.

Class-level wrappers are installed, from this file, on each layer's
public entry points before any stack is built.  A span is (layer,
method, start, end, parent); spans live on an in-memory stack and are
folded into one row per (layer, method, parent layer, phase) as they
close.  A layer's self time is its spans' duration minus the part
their child spans cover; whatever no probe covers is the root
remainder, reported as layer ``driver``.

The wrapper itself costs time.  Most of it runs between the wrapper's
own first and last timestamp and is measured on every call: the caller
is charged the whole wrapper interval as child time, the callee only
its span, so that bookkeeping drops out of every self time
(:func:`summarize` reports it as ``probe_ns``).  What the timestamps
cannot see — the call into the wrapper and the clock reads themselves —
:func:`calibrate` measures on a no-op method in this process, split
into the part that lands inside the probed span (``inside_ns``) and the
part that lands in the parent's self time (``outside_ns``);
:func:`summarize` subtracts both.

Known blind spot: under ``ClientPool``/``FleetPool`` the engines fire
flush, compaction and checkpoint as scheduler events through private
callbacks, so that engine self time lands in ``sim`` until in-program
tracing arrives (ROADMAP item 4).
"""

from __future__ import annotations

import importlib
import statistics
import time
import types
from fnmatch import fnmatchcase

from workloads import LAYERS

_KV_API = ("put", "get", "delete", "scan", "put_many", "get_many",
           "delete_many", "scan_many", "flush", "close")
_ENGINE_API = _KV_API + ("crash_and_recover",)
_BLOCK_IO = ("write_pages", "write_range", "read_range", "trim_range")

#: (layer, module, class-name glob, public methods).  A class or method
#: that no longer exists is skipped; a layer left with no probe at all
#: is an error (:func:`resolve`).
PROBES = (
    ("workload", "repro.workload.plan", "BatchPlanner", ("plan",)),
    ("workload", "repro.workload.keys", "*Key*", ("batch", "next_key")),
    ("sim", "repro.sim.scheduler", "Scheduler", ("run", "step")),
    ("sim", "repro.sim.clients", "ClientPool", ("run",)),
    ("fleet", "repro.fleet.pool", "FleetPool", ("run",)),
    ("fleet", "repro.fleet.sharded", "ShardedStore", _KV_API),
    ("lsm", "repro.lsm.store", "LSMStore", _ENGINE_API),
    ("lsm", "repro.lsm.compaction", "CompactionExecutor", ("run",)),
    ("btree", "repro.btree.store", "BTreeStore", _ENGINE_API),
    ("fs", "repro.fs.filesystem", "ExtentFilesystem",
     ("create", "delete", "append", "reserve", "pwrite", "pread",
      "page_run", "contiguous_device_range")),
    ("fs.alloc", "repro.fs.allocator", "*Allocator",
     ("alloc", "free", "free_many")),
    ("block", "repro.block.device", "BlockDevice", _BLOCK_IO),
    ("block", "repro.block.partition", "Partition", _BLOCK_IO + ("trim_all",)),
    ("flash.ssd", "repro.flash.ssd", "SSD",
     _BLOCK_IO + ("trim_all", "drain", "settle")),
    ("flash.ftl", "repro.flash.ftl", "FlashTranslationLayer", _BLOCK_IO),
    ("flash.gc", "repro.flash.gc", "*Policy",
     ("select_victim", "select_indexed")),
    ("core", "repro.core.metrics", "MetricsCollector",
     ("sample", "start_measurement")),
)

DRIVER = LAYERS.index("driver")
SETUP, MEASURED = 0, 1


class ProbeError(RuntimeError):
    """The probe table no longer matches the program."""


def _probed_classes():
    """(layer, class, wanted method names) for every table row that
    still names an importable module and an existing class."""
    for layer, modname, pattern, methods in PROBES:
        try:
            module = importlib.import_module(modname)
        except ImportError:
            continue
        for name, cls in vars(module).items():
            if (isinstance(cls, type) and cls.__module__ == modname
                    and fnmatchcase(name, pattern)):
                yield layer, cls, methods


def resolve():
    """Every probe that exists: ``[(layer, class, method, function)]``.

    Only functions defined on the class itself are wrapped, so an
    inherited method is timed once, on the class that owns it.
    """
    found = []
    for layer, cls, methods in _probed_classes():
        for method in methods:
            fn = vars(cls).get(method)
            if isinstance(fn, types.FunctionType):
                found.append((layer, cls, method, fn))
    empty = set(LAYERS) - {"driver"} - {layer for layer, *_ in found}
    if empty:
        raise ProbeError(f"layers with no resolved probe: {sorted(empty)}")
    return found


def unprobed():
    """Public methods of probed classes that the table does not name —
    printed by the tests so a new entry point gets noticed."""
    listing = []
    for layer, cls, methods in _probed_classes():
        extra = sorted(
            name for name, fn in vars(cls).items()
            if isinstance(fn, types.FunctionType)
            and not name.startswith("_") and name not in methods
        )
        if extra:
            listing.append((layer, cls.__name__, extra))
    return listing


class LayerTracer:
    """The span stack, the per-(probe, parent layer, phase) rows and
    the first ``keep_spans`` raw spans."""

    def __init__(self, keep_spans: int = 0):
        self.probes: list[tuple[str, str]] = []  # probe id -> (layer, Class.method)
        # key -> [calls, span ns, child-wrapper ns, child calls]
        self.rows: dict[int, list[int]] = {}
        # frame = [layer id, child-wrapper ns, child calls, raw span index]
        self.root = [DRIVER, 0, 0, -1]
        self.stack = [self.root]
        self.phase = [SETUP]
        self.discounted_ns = [0, 0]  # see discount(), per phase
        self.keep_spans = keep_spans
        self.spans: list[tuple | None] = []
        self.started_ns = 0
        self.root_at_flip: tuple[int, int, int] | None = None
        self.stopped_ns = 0

    def wrap(self, fn, layer: str, label: str):
        """Return *fn* wrapped in a probe of *layer*."""
        pid = len(self.probes)
        self.probes.append((layer, label))
        lid = LAYERS.index(layer)
        base = pid * len(LAYERS) * 2
        stack, rows, phase = self.stack, self.rows, self.phase
        spans, keep = self.spans, self.keep_spans
        now = time.perf_counter_ns

        def probe(*args, **kwargs):
            entered = now()
            parent = stack[-1]
            if len(spans) < keep:
                frame = [lid, 0, 0, len(spans)]
                spans.append(None)
            else:
                frame = [lid, 0, 0, -1]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                key = base + parent[0] * 2 + phase[0]
                row = rows.get(key)
                if row is None:
                    rows[key] = [1, end - start, frame[1], frame[2]]
                else:
                    row[0] += 1
                    row[1] += end - start
                    row[2] += frame[1]
                    row[3] += frame[2]
                if frame[3] >= 0:
                    spans[frame[3]] = (pid, start, end, parent[3])
                parent[2] += 1
                parent[1] += now() - entered

        return probe

    def install(self) -> None:
        """Wrap every resolved probe on its class."""
        for layer, cls, method, fn in resolve():
            setattr(cls, method,
                    self.wrap(fn, layer, f"{cls.__name__}.{method}"))

    def start(self) -> None:
        """Open the root span (after the imports, before any stack)."""
        self.started_ns = time.perf_counter_ns()

    def begin_measured(self) -> None:
        """Flip set-up -> measured.  Called from the driver level, so no
        probed span is open and rows split cleanly between the phases."""
        self.phase[0] = MEASURED
        self.root_at_flip = (time.perf_counter_ns(), self.root[1], self.root[2])

    def discount(self, ns: int) -> None:
        """Book *ns* just spent outside the program (the speed reference
        kernel) like a child's wrapper interval: out of every self time."""
        self.stack[-1][1] += ns
        self.discounted_ns[self.phase[0]] += ns

    def stop(self) -> None:
        """Close the root span."""
        self.stopped_ns = time.perf_counter_ns()

    def export(self) -> dict:
        """Everything :func:`summarize` needs, as JSON-ready data."""
        flip_ns, flip_child_ns, flip_child_calls = \
            self.root_at_flip or (self.started_ns, 0, 0)
        stride = len(LAYERS) * 2
        rows = []
        for key, (calls, span_ns, child_ns, child_calls) in sorted(self.rows.items()):
            pid, rest = divmod(key, stride)
            layer, label = self.probes[pid]
            rows.append({
                "layer": layer, "method": label,
                "parent": LAYERS[rest // 2], "phase": rest % 2,
                "calls": calls, "span_ns": span_ns,
                "child_ns": child_ns, "child_calls": child_calls,
            })
        return {
            "rows": rows,
            # The root span per phase: [span ns, child-wrapper ns, child calls].
            "root": [
                [flip_ns - self.started_ns, flip_child_ns, flip_child_calls],
                [self.stopped_ns - flip_ns, self.root[1] - flip_child_ns,
                 self.root[2] - flip_child_calls],
            ],
            "discounted_ns": list(self.discounted_ns),
            "probes": len(self.probes),
        }

    def raw_spans(self):
        """The kept raw spans as dicts (times in ns since the root span
        started; ``parent`` is an index into this list or -1)."""
        for index, span in enumerate(self.spans):
            if span is None:
                continue  # still open when the run ended
            pid, start, end, parent = span
            layer, label = self.probes[pid]
            yield {"id": index, "layer": layer, "method": label,
                   "start_ns": start - self.started_ns,
                   "end_ns": end - self.started_ns, "parent": parent}


def calibrate(calls: int = 50_000, rounds: int = 7) -> dict:
    """Per-call probe cost the wrapper's own timestamps cannot see, in
    nanoseconds, measured on a no-op method.

    ``inside_ns`` is what a probed span reads beyond the bare call (it
    inflates the callee's self time); ``outside_ns`` is what the caller
    pays around the wrapper interval (it inflates the parent's).  The
    median of *rounds* keeps one preempted round from skewing it.
    """
    class Noop:
        def call(self, start, npages, background=False):
            pass

    obj = Noop()
    bare_call = Noop.call
    now = time.perf_counter_ns
    inside, outside = [], []
    for _ in range(rounds):
        start = now()
        for _ in range(calls):
            pass
        loop = (now() - start) / calls
        Noop.call = bare_call
        start = now()
        for _ in range(calls):
            obj.call(0, 8, background=True)
        bare = (now() - start) / calls - loop
        scratch = LayerTracer()
        Noop.call = scratch.wrap(bare_call, "core", "Noop.call")
        start = now()
        for _ in range(calls):
            obj.call(0, 8, background=True)
        probed = (now() - start) / calls - loop
        (row,) = scratch.rows.values()
        inside.append(row[1] / calls - bare)
        outside.append(probed - scratch.root[1] / calls)
    return {"inside_ns": statistics.median(inside),
            "outside_ns": statistics.median(outside)}


def summarize(trace: dict, calibration: dict) -> dict:
    """Fold exported rows into one entry per layer.

    Returns ``{"layers": {layer: {...}}, "raw_total_ns", "corrected_s"}``
    where each layer has, per phase, ``calls``, ``raw_self_ns`` and the
    calibrated ``self_s`` (clamped at 0).  Raw self times plus the
    measured probe bookkeeping plus the discounts sum exactly to the
    root span (``raw_total_ns``); the calibrated ones estimate the
    untraced wall.
    """
    inside, outside = calibration["inside_ns"], calibration["outside_ns"]
    layers = {
        layer: {"calls": [0, 0], "raw_self_ns": [0, 0], "self_s": [0.0, 0.0]}
        for layer in LAYERS
    }
    corrected = {layer: [0.0, 0.0] for layer in LAYERS}
    for row in trace["rows"]:
        entry, phase = layers[row["layer"]], row["phase"]
        raw = row["span_ns"] - row["child_ns"]
        entry["calls"][phase] += row["calls"]
        entry["raw_self_ns"][phase] += raw
        corrected[row["layer"]][phase] += (
            raw - row["calls"] * inside - row["child_calls"] * outside)
    for phase, (span_ns, child_ns, child_calls) in enumerate(trace["root"]):
        raw = span_ns - child_ns
        layers["driver"]["raw_self_ns"][phase] += raw
        corrected["driver"][phase] += raw - child_calls * outside
    for layer, entry in layers.items():
        entry["self_s"] = [max(0.0, ns) / 1e9 for ns in corrected[layer]]
    # What the wrappers measured of themselves: every frame's child time
    # counts whole wrapper intervals (and discounts), every row only spans.
    probe_ns = (sum(child_ns for _, child_ns, _ in trace["root"])
                + sum(row["child_ns"] - row["span_ns"] for row in trace["rows"])
                - sum(trace["discounted_ns"]))
    return {
        "layers": layers,
        "probe_ns": probe_ns,
        "raw_total_ns": probe_ns + sum(trace["discounted_ns"])
        + sum(sum(e["raw_self_ns"]) for e in layers.values()),
        "corrected_s": sum(sum(e["self_s"]) for e in layers.values()),
    }
