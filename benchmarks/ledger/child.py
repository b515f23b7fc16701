"""One ledger measurement: a fresh process runs one workload once and
prints one JSON line.

The clock starts on this file's first statement, before ``import
repro``, so ``wall_s`` is what a user waits for and ``setup_s``
includes the import.  The program is reached through its default
public route only — ``run_experiment(ExperimentSpec(...))`` and
``FIGURES`` — and receives generated inputs (a spec built from the
workload table and ``--seed``), never a workload name.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro import rng  # noqa: E402
from repro.core.experiment import (  # noqa: E402
    ExperimentResult, ExperimentSpec, run_experiment)
from repro.core.figures import FIGURES, SCALES  # noqa: E402
from repro.core.metrics import MetricsCollector  # noqa: E402

from claims import evaluate  # noqa: E402
from reference import SpeedReference  # noqa: E402
from workloads import BY_NAME, COMMON, QUICK_DIVISOR, QUICK_FIGURES  # noqa: E402

PAGE_BYTES = 4096  # every SSD profile's page size


def fingerprint(result: ExperimentResult) -> str:
    """sha256 over the simulated outcome of one ExperimentResult."""
    outcome = result.to_dict(include_samples=False)
    canonical = json.dumps(
        {key: outcome[key] for key in (
            "smart", "kv_ops", "ops_issued", "run_seconds", "peak_space_amp",
            "fleet", "latency")},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def find_results(payload, found: list, seen: set) -> None:
    """Collect every ExperimentResult reachable from a figure payload."""
    if isinstance(payload, ExperimentResult):
        if id(payload) not in seen:
            seen.add(id(payload))
            found.append(payload)
    elif isinstance(payload, dict):
        for value in payload.values():
            find_results(value, found, seen)
    elif isinstance(payload, (list, tuple)):
        for value in payload:
            find_results(value, found, seen)


def fleet_residue(fleet: dict) -> int:
    """Offered ops of an open-loop run with no final outcome yet."""
    return (fleet["offered"] - fleet["rejected"] - fleet["completed"]
            - fleet["failed"] - fleet["timeouts"])


def check_result(result) -> dict[str, bool]:
    """The output checks one ExperimentResult must pass."""
    spec, smart, fleet = result.spec, result.smart, result.fleet
    checks = {
        # The engines' counters include the sequential load.
        "kv_ops_sum": sum(result.kv_ops.values())
        == result.ops_issued + spec.nkeys or result.out_of_space,
        "nand_conservation": smart["nand_bytes_written"]
        == smart["host_bytes_written"] + smart["gc_bytes_relocated"],
    }
    if spec.arrival is not None:
        # Every offered op ends in exactly one outcome, bar those still
        # queued when the run stops.  (``failed`` mixes ops dropped
        # after admission with ops whose retries ran out before any, so
        # offered = admitted + rejected is *not* an invariant.)
        checks["fleet_outcomes"] = (
            0 <= fleet_residue(fleet) <= spec.nshards * spec.queue_cap)
        checks["fleet_admission"] = (
            fleet["completed"] + fleet["timeouts"] <= fleet["admitted"]
            <= fleet["offered"] - fleet["rejected"])
        if spec.max_ops is not None:
            checks["budget_reached"] = (
                fleet["offered"] == spec.max_ops or result.out_of_space)
    elif spec.max_ops is not None:
        checks["budget_reached"] = (
            result.ops_issued == spec.max_ops or result.out_of_space)
    return checks


def attempted_ops(result) -> int:
    """Ops the measured phase attempted: offered (open loop) or issued."""
    if result.spec.arrival is not None:
        return result.fleet["offered"]
    if result.spec.max_ops is not None:
        return result.spec.max_ops  # ENOSPC ends a run short of it
    return result.ops_issued


def unaccounted_ops(result) -> int:
    """Attempted ops that ended with no recorded outcome (expected: 0).

    Open loop: offered ops beyond what the shard queues can still hold
    at the stop.  Closed loop: budget left unissued although the device
    did not fill up.
    """
    spec = result.spec
    if spec.arrival is not None:
        residue = fleet_residue(result.fleet)
        return max(0, residue - spec.nshards * spec.queue_cap, -residue)
    if result.out_of_space:
        return 0
    return attempted_ops(result) - result.ops_issued


def sim_metrics(results) -> dict[str, float]:
    """The deterministic per-layer counts and ratios (simulated world)."""
    smart = {key: sum(r.smart[key] for r in results) for key in results[0].smart}
    ops = sum(r.ops_issued for r in results)
    run_s = sum(r.run_seconds for r in results)
    sampled = [r.samples[-1] for r in results if r.samples]
    mean = lambda values: sum(values) / len(values) if values else 0.0  # noqa: E731
    write_reqs = smart["host_write_requests"]
    host_pages_written = smart["host_bytes_written"] // PAGE_BYTES
    reclaims = smart["gc_reclaims"]
    metrics = {
        "core.sim_kops": ops / run_s / 1e3 if run_s else 0.0,
        "core.sim_wa_a": mean([s.wa_a for s in sampled]),
        "core.sim_wa_d": mean([s.wa_d for s in sampled]),
        "core.sim_space_amp": mean([r.peak_space_amp for r in results]),
        "core.sim_run_s": run_s,
        "core.samples": sum(len(r.samples) for r in results),
        "block.write_reqs": write_reqs,
        "block.read_reqs": smart["host_read_requests"],
        "block.pages_per_write_req":
            host_pages_written / write_reqs if write_reqs else 0.0,
        "flash.ssd.host_pages":
            host_pages_written + smart["host_bytes_read"] // PAGE_BYTES,
        "flash.ssd.fold_events": smart["fold_events"],
        "flash.ftl.nand_pages": smart["nand_bytes_written"] // PAGE_BYTES,
        "flash.gc.reclaims": reclaims,
        "flash.gc.pages_moved": smart["gc_pages_moved"],
        "flash.gc.moved_per_reclaim":
            smart["gc_pages_moved"] / reclaims if reclaims else 0.0,
    }
    recorded = [r.client_latencies for r in results
                if r.client_latencies is not None and r.client_latencies.count()]
    if len(results) == 1 and recorded:
        pooled = recorded[0].pooled_summary()
        metrics["sim.lat_p50_ms"] = pooled["p50"] * 1e3
        metrics["sim.lat_p99_ms"] = pooled["p99"] * 1e3
        metrics["sim.lat_samples"] = pooled["ops"]
    fleet = results[0].fleet if len(results) == 1 else None
    if fleet is not None and fleet["arrival"] is not None:
        for key in ("offered", "rejected", "timeouts", "retries", "lost_keys",
                    "slo_attainment"):
            metrics[f"fleet.{key}"] = fleet[key]
        metrics["fleet.recovery_s"] = max(
            row["recovery_seconds"] for row in fleet["per_shard"])
    return metrics


def timed_run(workload, seed: int | None, quick: bool, tracer):
    """Run *workload* once under the speed reference.  Returns ``(seed
    used, results, claims, segments, number of segments that are
    set-up)``; segment 0 is the import that just happened."""
    reference = SpeedReference(T0)
    reference.close_segment()  # segment 0: the import
    if tracer is not None:
        tracer.start()
    single = workload.spec is not None
    setup_segments = []

    def cut() -> None:
        """Close a segment; the kernel's time belongs to no layer."""
        kernel_s = reference.close_segment()
        if tracer is not None:
            tracer.discount(int(kernel_s * 1e9))

    def begin_measured() -> None:
        setup_segments.append(len(reference.segments))
        if tracer is not None:
            tracer.begin_measured()

    # The only interposition in an untraced run: the speed reference
    # closes a segment when a measured phase starts (after sequential
    # load + drain) and at every sampling callback.
    start_measurement = MetricsCollector.start_measurement
    sample = MetricsCollector.sample

    def marked_start(self):
        start_measurement(self)
        cut()
        if single and not setup_segments:
            begin_measured()

    def marked_sample(self):
        point = sample(self)
        cut()
        return point

    MetricsCollector.start_measurement = marked_start
    MetricsCollector.sample = marked_sample

    if seed is None:
        seed = rng.DEFAULT_SEED
    claims = None
    gc.collect()
    if single:
        fields = {**COMMON, **workload.spec, "seed": seed}
        if quick:
            fields["max_ops"] //= QUICK_DIVISOR
        results = [run_experiment(ExperimentSpec.from_dict(fields))]
    else:
        # The figures pin their own seed; --seed does not reach them,
        # and their set-up is the import alone.
        begin_measured()
        figure_data = {
            figure_id: FIGURES[figure_id](SCALES["small"]).data
            for figure_id in (QUICK_FIGURES if quick else FIGURES)
        }
        results = []
        find_results(figure_data, results, set())
        claims = evaluate(figure_data)
    cut()
    if tracer is not None:
        tracer.stop()
    return seed, results, claims, reference.segments, setup_segments[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", type=int, default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()
    workload = BY_NAME[args.workload]

    tracer = None
    if args.traced:
        # Probes go on the classes before any stack is built.
        import probes
        tracer = probes.LayerTracer(keep_spans=args.spans)
        tracer.install()
    seed, results, claims, segments, nsetup = timed_run(
        workload, args.seed, args.quick, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks: dict[str, bool] = {}
    for result in results:
        for name, ok in check_result(result).items():
            checks[name] = checks.get(name, True) and bool(ok)
    ops = sum(r.ops_issued for r in results)
    attempted = sum(attempted_ops(r) for r in results)
    if claims is None:
        served = ops / attempted
        held = sum(checks.values())
    else:
        served = 1.0 - sum(r.out_of_space for r in results) / len(results)
        held = sum(claims.values())
    prints = [fingerprint(r) for r in results]
    record = {
        "seed": seed,
        "traced": args.traced,
        # Host seconds exclude the reference kernel; *_units count the
        # same intervals in executions of that kernel (reference.py).
        "import_s": segments[0][0],
        "import_units": segments[0][1],
        "setup_s": sum(seconds for seconds, _ in segments[:nsetup]),
        "setup_units": sum(units for _, units in segments[:nsetup]),
        "measured_s": sum(seconds for seconds, _ in segments[nsetup:]),
        "measured_units": sum(units for _, units in segments[nsetup:]),
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "attempted": attempted,
        "unaccounted": sum(unaccounted_ops(r) for r in results),
        "served_frac": served,
        "claims_held": held,
        "claims": claims,
        "checks": checks,
        "sim_fingerprint": prints[0] if len(prints) == 1 else hashlib.sha256(
            "".join(prints).encode("ascii")).hexdigest(),
        "sim": sim_metrics(results),
        "spec": results[0].spec.to_dict() if claims is None else None,
    }
    if tracer is not None:
        record["trace"] = tracer.export()
        record["calibration"] = probes.calibrate()
        if args.spans and args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as out:
                for span in tracer.raw_spans():
                    out.write(json.dumps(span) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
