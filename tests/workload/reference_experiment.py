"""A whole experiment with the reference driver in the loop.

``reference_record(spec)`` follows the paper's procedure (§3.2) on a
stack from ``build_stack`` — per-op sequential load, drain, start the
measurement, measured phase under the spec's stop rule and sampling —
with ``reference_driver`` issuing every operation.
``assert_matches_reference`` holds ``run_experiment(spec)`` to it:
every sample the drivers fire, both phase lengths, SMART, per-client
op counts and every latency.
"""

from __future__ import annotations

from repro.core.experiment import ExperimentSpec, build_stack, run_experiment
from repro.core.metrics import MetricsCollector
from tests.workload import reference_driver


def reference_record(spec: ExperimentSpec) -> dict:
    stack = build_stack(spec)
    clock, store, ssd = stack.clock, stack.store, stack.shards[0].ssd
    workload = spec.workload()
    collector = MetricsCollector(stack, workload.dataset_bytes)
    outcome = reference_driver.load(store, workload)
    load_seconds = run_start = clock.now
    if not outcome.out_of_space:  # else the load's count is the result
        ssd.drain()
        collector.start_measurement()
        run_start = clock.now
        target_bytes = int(spec.duration_capacity_writes * spec.capacity_bytes)
        max_ops = spec.max_ops
        if max_ops is None and spec.read_fraction + spec.scan_fraction >= 1.0:
            # Gets and scans write nothing, so stop_when never fires:
            # allow the ops an all-update run needs to reach the target.
            max_ops = max(1, target_bytes // max(spec.value_bytes, 1))
        limits = dict(
            stop_when=lambda: collector.host_bytes_written() >= target_bytes,
            sample_interval=spec.sample_interval, on_sample=collector.sample,
            max_ops=max_ops)
        if spec.nclients > 1 or spec.driver == "pool":
            outcome = reference_driver.run_pool(
                store, workload, spec.nclients, spec.seed, ssd=ssd, **limits)
        else:
            outcome = reference_driver.run(store, workload, spec.seed, **limits)
    return {
        "ops_issued": outcome.ops_issued,
        "out_of_space": outcome.out_of_space,
        "load_seconds": load_seconds,
        "run_seconds": clock.now - run_start,
        "smart": ssd.smart.as_dict(),
        "per_client_ops": getattr(outcome, "per_client_ops", None),
        "latencies": getattr(outcome, "latencies", None),
        "samples": list(collector.samples),
    }


def assert_matches_reference(spec: ExperimentSpec):
    """Run *spec* through ``run_experiment`` and through the reference;
    they must agree on everything the drivers produce.  Returns the
    shipped result."""
    reference = reference_record(spec)
    result = run_experiment(spec)
    latencies = result.client_latencies
    fired = len(reference["samples"])
    assert {
        "ops_issued": result.ops_issued,
        "out_of_space": result.out_of_space,
        "load_seconds": result.load_seconds,
        "run_seconds": result.run_seconds,
        "smart": result.smart,
        "per_client_ops": result.per_client_ops,
        "latencies": latencies and [latencies.series(i).tolist()
                                    for i in range(latencies.nclients)],
        "samples": result.samples[:fired],
    } == reference
    # run_experiment may close the series with one sample of its own.
    assert len(result.samples) - fired in (0, 1)
    return result
