"""The profiler entry point (DESIGN.md §8) and the 16-client fig-2 cell."""

from __future__ import annotations

from repro.bench import profile_case
from repro.cli import main
from repro.core.experiment import Engine, ExperimentSpec, run_experiment
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


def test_profile_case_reports_hot_spots():
    table = profile_case(Engine.LSM, "small", nclients=4, top=5,
                         sort="tottime")
    assert "fig2-update-pool4-lsm" in table
    assert "ncalls" in table  # the pstats table rendered


def test_profile_cli_smoke(capsys, tmp_path):
    out_path = tmp_path / "profile.txt"
    assert main(["profile", "--engine", "btree", "--scale", "small",
                 "--top", "3", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "fig2-update-btree" in out
    assert out_path.read_text().startswith("profile of fig2-update-btree")


def test_profile_fleet_path():
    table = profile_case(Engine.LSM, "small", nclients=4, nshards=2, top=5)
    assert "fleet path" in table
    assert "shards2" in table
