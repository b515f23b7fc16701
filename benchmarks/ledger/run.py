"""Perf ledger v1: eight named workloads, six end-to-end metrics and an
outside-in per-layer split of the simulator's own wall clock.

    python benchmarks/ledger/run.py [--seed N] [--repeats R]
        [--workloads GLOB] [--traced] [--out FILE] [--aa] [--quick]

The orchestrator is one process that launches one fresh
single-threaded ``python`` child per (workload, repeat), one at a
time, round-robin over workloads so drift hits all of them equally.
Every end-to-end number is the median over repeats, printed with
quartiles and n; host times are counted against an interleaved speed
reference (``reference.py``) so that a noisy neighbour does not move
them.  The traced pass runs each workload once more under the layer
probes (``probes.py``) for the per-layer numbers.  It exits non-zero
when any output check fails.

The benchmark driver's form (``BENCHMARK.json``) is one workload per
call: ``--workload NAME --seed N --seconds S --trace 0|1``; the last
line of stdout is then one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import fnmatch
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import probes
from workloads import (BY_NAME, E2E, LAYER_COUNTS, LAYERS, PER_LAYER,
                       REFERENCE_KERNEL_S, WORKLOADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD_TIMEOUT_S = 170  # the driver allows a whole call 180 s
LEGAL_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Σ calibrated self times must land this close to the untraced wall
#: (import excluded), else the layer table is flagged ``uncalibrated``.
CALIBRATION_TOLERANCE = 0.10
#: End-to-end metrics that must repeat exactly on one seed.
EXACT = ("served_frac", "claims_held")


class LedgerError(RuntimeError):
    """A child process failed."""


# ----------------------------------------------------------------------
# Running children
# ----------------------------------------------------------------------
def run_child(name: str, seed: int | None, quick: bool, traced: bool = False,
              spans: int = 0) -> dict:
    """One fresh single-threaded interpreter, one workload, one record."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if traced:
        cmd.append("--traced")
        if spans:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            cmd += ["--spans", str(spans),
                    "--spans-out", str(out_dir / f"spans-{name}.jsonl")]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise LedgerError(f"{name}: child exited {proc.returncode}\n"
                          + proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def normalised(record: dict) -> tuple[float, float, float]:
    """``(import, set-up, measured)`` of one child in reference seconds:
    its reference units (``reference.py``) times the nominal kernel
    time, i.e. host seconds with the machine's slowdown divided out."""
    return (record["import_units"] * REFERENCE_KERNEL_S,
            record["setup_units"] * REFERENCE_KERNEL_S,
            record["measured_units"] * REFERENCE_KERNEL_S)


def e2e_values(record: dict) -> dict[str, float]:
    """The six end-to-end metrics of one child record."""
    _import_s, setup_s, measured_s = normalised(record)
    return {
        "setup_s": setup_s,
        "wall_s": setup_s + measured_s,
        "host_ops_per_s": record["ops"] / measured_s,
        "peak_rss_mb": record["peak_rss_mb"],
        "served_frac": record["served_frac"],
        "claims_held": record["claims_held"],
    }


def quartiles(values: list[float]) -> dict:
    """Median, quartiles and n (quartiles collapse below two values)."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def e2e_summary(records: list[dict]) -> dict[str, dict]:
    """Median, quartiles and n of each end-to-end metric over repeats,
    plus the raw (not normalised) median of the two wall-clock ones."""
    per_repeat = [e2e_values(record) for record in records]
    summary = {
        metric.name: {**quartiles([v[metric.name] for v in per_repeat]),
                      "unit": metric.unit}
        for metric in E2E
    }
    summary["setup_s"]["raw_median"] = statistics.median(
        r["setup_s"] for r in records)
    summary["wall_s"]["raw_median"] = statistics.median(
        r["setup_s"] + r["measured_s"] for r in records)
    return summary


def output_problems(name: str, records: list[dict]) -> list[str]:
    """Everything the output checks object to in one workload's records."""
    problems = []
    for record in records:
        label = f"{name}[{'traced' if record['traced'] else 'untraced'}]"
        problems += [f"{label}: check {check} failed"
                     for check, ok in record["checks"].items() if not ok]
        if record["attempted"] < 1:
            problems.append(f"{label}: nothing attempted")
    prints = {record["sim_fingerprint"] for record in records}
    if len(prints) > 1:
        problems.append(f"{name}: sim_fingerprint differs across runs of one "
                        f"seed: {sorted(prints)}")
    return problems


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(untraced: list[dict], traced: dict) -> tuple[dict, dict]:
    """``({per-layer metric: value}, trace verdict)`` for one workload.

    Self times are the traced run's calibrated self times scaled, per
    phase, by that run's own reference-seconds / host-seconds ratio, so
    they are in the unit of the end-to-end metrics.  A metric that does
    not apply to the workload (``fleet.*`` on an inline run) is 0.
    """
    summary = probes.summarize(traced["trace"], traced["calibration"])
    layers, rows = summary["layers"], traced["trace"]["rows"]
    ops = traced["ops"]
    _, setup_s, measured_s = normalised(traced)
    scale = (setup_s / traced["setup_s"], measured_s / traced["measured_s"])
    self_s = {layer: [seconds * factor for seconds, factor
                      in zip(entry["self_s"], scale)]
              for layer, entry in layers.items()}
    measured_total = sum(both[probes.MEASURED] for both in self_s.values())
    metrics = {metric.name: 0.0 for metric in PER_LAYER}
    for layer, entry in layers.items():
        own = self_s[layer][probes.MEASURED]
        metrics[f"{layer}.calls"] = entry["calls"][probes.MEASURED]
        metrics[f"{layer}.self_s"] = own
        metrics[f"{layer}.self_share"] = own / measured_total
        metrics[f"{layer}.self_us_per_op"] = own / ops * 1e6
        metrics[f"{layer}.setup_self_s"] = self_s[layer][probes.SETUP]
    metrics.update(traced["sim"])

    def entry_calls(layer: str) -> int:
        """Measured-phase calls into *layer* from any other layer."""
        return sum(row["calls"] for row in rows
                   if row["layer"] == layer and row["parent"] != layer
                   and row["phase"] == probes.MEASURED)

    metrics["lsm.compactions"] = sum(
        row["calls"] for row in rows
        if row["method"] == "CompactionExecutor.run"
        and row["phase"] == probes.MEASURED)
    if metrics["lsm.calls"]:
        metrics["lsm.fs_calls_per_op"] = entry_calls("fs") / ops
    if metrics["btree.calls"]:
        metrics["btree.block_calls_per_op"] = entry_calls("block") / ops
    metrics["flash.ssd.host_us_per_page"] = sum(
        sum(self_s[layer]) for layer in ("flash.ssd", "flash.ftl", "flash.gc")
    ) / metrics["flash.ssd.host_pages"] * 1e6

    def after_import(record: dict) -> float:
        import_s, setup_s, measured_s = normalised(record)
        return setup_s + measured_s - import_s

    corrected_s = sum(sum(both) for both in self_s.values())
    uninstrumented_s = statistics.median(after_import(r) for r in untraced)
    metrics["driver.trace_overhead_frac"] = (
        after_import(traced) / uninstrumented_s - 1.0)
    verdict = {
        # Host seconds: Σ raw self + root remainder + probe bookkeeping
        # is the traced root span, exactly.
        "root_span_s": sum(span_ns for span_ns, *_ in
                           traced["trace"]["root"]) / 1e9,
        "raw_total_s": summary["raw_total_ns"] / 1e9,
        "probe_bookkeeping_s": summary["probe_ns"] / 1e9,
        # Reference seconds: what calibration leaves against what an
        # untraced run takes once imported.
        "corrected_s": corrected_s,
        "uninstrumented_s": uninstrumented_s,
        "calibrated": abs(corrected_s / uninstrumented_s - 1.0)
        <= CALIBRATION_TOLERANCE,
        "calibration": traced["calibration"],
        "probes": traced["trace"]["probes"],
    }
    return metrics, verdict


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_e2e(name: str, summary: dict, fingerprint: str) -> None:
    print(f"== {name}  end to end  sim_fingerprint {fingerprint[:16]}")
    for metric in E2E:
        row = summary[metric.name]
        raw = (f"  (raw wall clock {row['raw_median']:.4f})"
               if "raw_median" in row else "")
        print(f"  {metric.name:<16}{row['median']:>14.4f} {metric.unit:<9}"
              f" q1 {row['q1']:.4f}  q3 {row['q3']:.4f}  n {row['n']}{raw}")


def print_layers(name: str, metrics: dict, verdict: dict) -> None:
    flag = "calibrated" if verdict["calibrated"] else "UNCALIBRATED"
    print(f"== {name}  per layer  ({flag}: calibrated self times sum to "
          f"{verdict['corrected_s']:.3f} s against {verdict['uninstrumented_s']:.3f}"
          f" s untraced; trace overhead "
          f"{metrics['driver.trace_overhead_frac']:+.1%})")
    print(f"  {'layer':<11}{'.calls count':>14}{'.self_s s':>12}"
          f"{'.self_share':>13}{'.self_us_per_op':>17}{'.setup_self_s s':>17}")
    for layer in LAYERS:
        print(f"  {layer:<11}{metrics[f'{layer}.calls']:>14.0f}"
              f"{metrics[f'{layer}.self_s']:>12.4f}"
              f"{metrics[f'{layer}.self_share']:>13.1%}"
              f"{metrics[f'{layer}.self_us_per_op']:>17.3f}"
              f"{metrics[f'{layer}.setup_self_s']:>17.4f}")
    for metric in LAYER_COUNTS:
        print(f"  {metric.name:<30}{metrics[metric.name]:>16.4f} {metric.unit}")


# ----------------------------------------------------------------------
# A/A comparison
# ----------------------------------------------------------------------
def compare_sets(name: str, a: dict, b: dict) -> list[str]:
    """Objections to two end-to-end summaries of the same code."""
    problems = []
    for metric in E2E:
        first, second = a[metric.name]["median"], b[metric.name]["median"]
        gap = abs(second - first) / first
        limit = 0.0 if metric.name in EXACT else metric.bound
        verdict = "ok" if gap <= limit else "DIFFERS"
        print(f"  {name:<15}{metric.name:<16}A {first:>12.4f}  B {second:>12.4f}"
              f"  gap {gap:6.2%} (limit {limit:.0%})  {verdict}")
        if gap > limit:
            problems.append(f"{name}: {metric.name} differs by {gap:.2%}"
                            f" between two sets of the same code")
    return problems


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def machine() -> dict:
    """Where the numbers come from."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "platform": platform.platform()}


def select(patterns: str) -> list[str]:
    names = [w.name for w in WORKLOADS
             if any(fnmatch.fnmatchcase(w.name, pattern)
                    for pattern in patterns.split(","))]
    if not names:
        raise SystemExit(f"no workload matches {patterns!r}; "
                         f"known: {', '.join(BY_NAME)}")
    return names


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=None,
                        help="reaches ExperimentSpec.seed only "
                             "(default: repro.rng.DEFAULT_SEED)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--workloads", default="*",
                        help="comma-separated globs over workload names")
    parser.add_argument("--traced", action="store_true",
                        help="add the traced pass (per-layer metrics)")
    parser.add_argument("--spans", type=int, default=0,
                        help="traced pass: also dump the first N raw spans "
                             "as JSONL under benchmarks/ledger/out/")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument("--aa", action="store_true",
                        help="two interleaved sets of the same code; fail "
                             "when they disagree beyond the bounds")
    parser.add_argument("--quick", action="store_true",
                        help="op budgets /10, 1 repeat; tests only")
    driver = parser.add_argument_group("benchmark driver form")
    driver.add_argument("--workload", choices=sorted(BY_NAME))
    driver.add_argument("--seconds", type=float, default=None,
                        help="repeat each workload until its children's "
                             "walls sum to this (instead of --repeats)")
    driver.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: per-layer metrics from one traced run")
    args = parser.parse_args(argv)
    if args.quick:
        args.repeats = 1
    if args.trace == 1:  # one untraced run for reference, one traced
        args.repeats, args.traced, args.seconds = 1, True, None
    return args


def measure(args: argparse.Namespace, names: list[str]):
    """Run the children: ``({set: {workload: [records]}}, {workload:
    traced record})``.  Round-robin over workloads; with ``--aa`` the
    two sets alternate which goes first."""
    sets = ("A", "B") if args.aa else ("A",)
    records = {set_id: {name: [] for name in names} for set_id in sets}

    def wanted(name: str) -> bool:
        done = records["A"][name]
        if args.seconds is not None:
            return sum(r["setup_s"] + r["measured_s"]
                       for r in done) < args.seconds
        return len(done) < args.repeats

    round_no = 0
    while pending := [name for name in names if wanted(name)]:
        order = sets if round_no % 2 == 0 else sets[::-1]
        for name in pending:
            for set_id in order:
                records[set_id][name].append(
                    run_child(name, args.seed, args.quick))
        round_no += 1
    traces = {name: run_child(name, args.seed, args.quick, traced=True,
                              spans=args.spans)
              for name in names} if args.traced else {}
    return records, traces


def driver_line(args: argparse.Namespace, entry: dict, done: list[dict],
                correct: bool) -> str:
    """The one JSON object the benchmark driver reads."""
    if args.trace == 1:
        units = {metric.name: metric.unit for metric in PER_LAYER}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in entry["per_layer"].items()}
    else:
        metrics = {name: {"value": row["median"], "unit": row["unit"]}
                   for name, row in entry["e2e"].items()}
    # Failed = ops the simulator left without a recorded outcome.  A
    # simulated rejection or timeout is an outcome of the model, not a
    # failure of the program; it shows in served_frac instead.
    return json.dumps({"correct": correct,
                       "attempted": sum(r["attempted"] for r in done),
                       "failed": sum(r["unaccounted"] for r in done),
                       "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else select(args.workloads)
    if args.quick:
        print("QUICK RUN: op budgets /10, 1 repeat. NOT A BASELINE.")
    try:
        records, traces = measure(args, names)
    except (LedgerError, subprocess.TimeoutExpired) as exc:
        print(f"ledger run failed: {exc}", file=sys.stderr)
        return 1

    report = {
        "schema": "perf-ledger/1",
        "baseline": not args.quick,
        "machine": machine(),
        "seed": records["A"][names[0]][0]["seed"],
        "repeats": {name: len(records["A"][name]) for name in names},
        "workloads": {},
    }
    problems = [f"illegal name {n!r}" for n in
                [*names, *(m.name for m in E2E), *(m.name for m in PER_LAYER)]
                if not LEGAL_NAME.fullmatch(n)]
    for name in names:
        untraced = [r for by_name in records.values() for r in by_name[name]]
        problems += output_problems(
            name, untraced + ([traces[name]] if args.traced else []))
        first = untraced[0]
        entry = report["workloads"][name] = {
            "why": BY_NAME[name].why,
            "sizes": BY_NAME[name].sizes,
            "spec": first["spec"],
            "sim_fingerprint": first["sim_fingerprint"],
            "checks": first["checks"],
            "claims": first["claims"],
            "e2e": e2e_summary(records["A"][name]),
        }
        print_e2e(name, entry["e2e"], first["sim_fingerprint"])
        for claim, held in (first["claims"] or {}).items():
            print(f"  claim {claim:<60}{'held' if held else 'NOT HELD'}")
        if args.traced:
            entry["per_layer"], entry["trace"] = layer_metrics(
                untraced, traces[name])
            print_layers(name, entry["per_layer"], entry["trace"])
    if args.aa:
        print("== A/A: two interleaved sets of the same code")
        for name in names:
            entry = report["workloads"][name]
            entry["e2e_b"] = e2e_summary(records["B"][name])
            problems += compare_sets(name, entry["e2e"], entry["e2e_b"])
    report["problems"] = problems
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    if args.workload:
        print(driver_line(args, report["workloads"][args.workload],
                          records["A"][args.workload], not problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
