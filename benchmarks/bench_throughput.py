"""Wall-clock simulator throughput: the perf trajectory (DESIGN.md §6).

Unlike the figure benches (which pin *simulated* results), this one
measures how fast the simulator itself executes the fig-2 update
workload per engine — ops/sec and simulated-pages/sec of wall time.
The same measurement backs ``repro bench`` and the committed ``BENCH_throughput.json`` baseline
that CI's perf-smoke job checks against.
"""

from benchmarks.conftest import run_once
from repro.bench import render_bench, run_bench


def test_throughput(benchmark, archive):
    report = run_once(benchmark, lambda: run_bench(smoke=True, repeat=2))
    archive("throughput", render_bench(report))

    for case in report["suites"]["smoke"]["cases"]:
        # The simulation did real work.
        assert case["sim"]["run_ops"] > 0
        assert case["sim"]["wa_d"] >= 1.0
