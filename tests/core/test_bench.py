"""The 16-client fig-2 cell, in readable numbers."""

from __future__ import annotations

from repro.core.experiment import ExperimentSpec, run_experiment
from tests.core.test_golden_fingerprints import SPECS


def test_pool16_cell_matches_committed_sim_block():
    """The 16-client LSM cell still produces the readable numbers of
    the ``sim`` block the retired wall-clock perf baseline committed
    for it (``pool16-lsm`` in the golden fingerprints pins the whole
    record; this says *what* moved when that digest does)."""
    result = run_experiment(ExperimentSpec(**SPECS["pool16-lsm"]))
    latencies = result.client_latencies.pooled_summary()
    assert {
        "run_ops": result.ops_issued,
        "per_client_ops": result.per_client_ops,
        "latency_p50": latencies["p50"],
        "latency_p99": latencies["p99"],
        "run_virtual_seconds": result.run_seconds,
        "host_bytes_written": result.smart["host_bytes_written"],
        "nand_bytes_written": result.smart["nand_bytes_written"],
        "samples": len(result.samples),
    } == {
        "run_ops": 4992,
        "per_client_ops": [525, 185, 181, 576, 159, 108, 477, 146, 479, 648,
                           197, 523, 215, 187, 177, 209],
        "latency_p50": 2.9999999999999997e-05,
        "latency_p99": 0.11716930000000045,
        "run_virtual_seconds": 0.8340990014648374,
        "host_bytes_written": 189333504,
        "nand_bytes_written": 320860160,
        "samples": 4,
    }

