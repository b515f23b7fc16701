"""Schema checker for exported traces: the oracle the trace tests and
CI's trace-smoke steps hold ``repro run --trace`` output against.

Validates the structural contract a Chrome ``trace_event`` consumer
(Perfetto) relies on, plus this repo's own invariant: every op span's
attribution components sum to its recorded total latency.  It imports
only the standard library, so it runs where only numpy is installed::

    python tests/obs/schema.py trace.json
"""

from __future__ import annotations

import json
import sys

ALLOWED_PHASES = {"X", "i", "C", "M"}

#: |total - sum(components)| tolerance, in microseconds (trace units).
SUM_TOLERANCE_US = 1e-3


def validate_chrome_trace(path: str) -> list[str]:
    """Return a list of schema violations (empty means valid)."""
    errors: list[str] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable trace: {exc}"]
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["top level must be an object with a traceEvents list"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    n_ops = 0
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ALLOWED_PHASES:
            errors.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            errors.append(f"{where}: missing or non-string name")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: args must be an object")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X event with bad dur {dur!r}")
        if ev.get("cat") == "op":
            n_ops += 1
            err = _check_op_sum(ev, where)
            if err:
                errors.append(err)
    if n_ops == 0:
        errors.append("trace contains no op spans (cat='op')")
    return errors


def _check_op_sum(ev: dict, where: str) -> str | None:
    args = ev.get("args")
    if not isinstance(args, dict) or "total" not in args:
        return f"{where}: op span without args.total"
    total = args["total"]
    # "shard" is a label (fleet routing target), not a latency
    # component, even though it is numeric.
    parts = sum(v for k, v in args.items()
                if k not in ("total", "shard") and isinstance(v, (int, float)))
    # args carry seconds; compare in microseconds like the trace body.
    if abs(total - parts) * 1e6 > SUM_TOLERANCE_US:
        return (f"{where}: op components sum to {parts!r}, "
                f"total is {total!r}")
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/obs/schema.py TRACE.json", file=sys.stderr)
        return 2
    errors = validate_chrome_trace(argv[0])
    if errors:
        for err in errors[:50]:
            print(f"SCHEMA: {err}", file=sys.stderr)
        print(f"{argv[0]}: {len(errors)} schema violation(s)", file=sys.stderr)
        return 1
    print(f"{argv[0]}: trace schema OK")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main(sys.argv[1:]))
