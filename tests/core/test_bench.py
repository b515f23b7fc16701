"""The bench grid and profiler entry points (DESIGN.md §6, §8)."""

from __future__ import annotations

from pathlib import Path

from repro.bench import (CELLS, POOL16_CLIENTS, SCHEMA_VERSION, bench_case,
                         check_regression, load_report, profile_case)
from repro.cli import main
from repro.core.experiment import Engine
from repro.core.figures import SCALES

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_throughput.json"


def test_bench_grid_covers_both_pooled_depths():
    nclients = [cell[1] for cell in CELLS]
    assert 4 in nclients
    assert POOL16_CLIENTS in nclients
    for _name, n, overrides, engines in CELLS:
        assert isinstance(overrides, dict)
        assert n >= 1
        assert engines is None or all(isinstance(e, Engine) for e in engines)


def test_pool16_cell_matches_committed_sim_block():
    """The 16-client cell reproduces the ``sim`` block committed in
    ``BENCH_throughput.json`` — recorded while a one-op-per-event
    driver still ran beside the pool and was asserted equal to it —
    including pooled latency percentiles and per-client ops."""
    record = bench_case(Engine.LSM, SCALES["small"], nclients=POOL16_CLIENTS)
    assert record["name"] == "fig2-update-pool16-lsm"
    committed = load_report(str(BASELINE))["suites"]["smoke"]["cases"]
    assert record["sim"] == next(
        case["sim"] for case in committed if case["name"] == record["name"])
    assert len(record["sim"]["per_client_ops"]) == POOL16_CLIENTS


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


def test_cases_glob_filters_grid():
    from repro.bench import run_suite

    suite = run_suite("small", repeat=1, cases_glob="fig2-update-pool4-*")
    names = [case["name"] for case in suite["cases"]]
    assert names == ["fig2-update-pool4-lsm", "fig2-update-pool4-btree"]
    suite = run_suite("small", repeat=1, cases_glob="no-such-cell")
    assert suite["cases"] == []


def test_machine_metadata_recorded_and_mismatch_warned():
    from repro.bench import machine_metadata

    meta = machine_metadata()
    assert meta["numpy"] and meta["python"] and meta["cpu_count"] >= 1
    report = {"schema": SCHEMA_VERSION, "suites": {}, "machine": meta}
    other = dict(meta, node="elsewhere", cpu_count=1)
    baseline = {"schema": SCHEMA_VERSION, "suites": {}, "machine": other}
    problems, warnings = check_regression(report, baseline)
    assert not problems
    assert any("different machine" in w for w in warnings)
    # same machine: no warning
    problems, warnings = check_regression(report, {"schema": SCHEMA_VERSION, "suites": {},
                                                   "machine": dict(meta)})
    assert not problems and not warnings


def two_case_report(**sims) -> dict:
    """A hand-built report: one smoke suite, one case per keyword."""
    return {"schema": SCHEMA_VERSION, "suites": {"smoke": {"cases": [
        {"name": name, "sim": sim, "wall": {"run_ops_per_sec": 100.0}}
        for name, sim in sims.items()]}}}


def test_check_names_a_sim_key_the_baseline_lacks():
    baseline = two_case_report(a={"x": 1}, b={"x": 2})
    current = two_case_report(a={"x": 1, "y": 5}, b={"x": 2})
    problems, _warnings = check_regression(current, baseline)
    assert problems == ["smoke/a: sim fingerprint drifted (y: <absent> -> 5)"]


def test_check_names_a_sim_key_that_disappeared():
    baseline = two_case_report(a={"x": 1, "y": 5}, b={"x": 2})
    current = two_case_report(a={"x": 1}, b={"x": 2})
    problems, _warnings = check_regression(current, baseline)
    assert problems == ["smoke/a: sim fingerprint drifted (y: 5 -> <absent>)"]


def test_check_reports_a_baseline_cell_missing_from_an_unfiltered_run():
    baseline = two_case_report(a={"x": 1}, b={"x": 2})
    current = two_case_report(a={"x": 1})
    problems, _warnings = check_regression(current, baseline)
    assert problems == ["smoke/b: cell is in the baseline but not in this run"]
    # A --cases run is expected to lack cells; a new cell is not a problem.
    assert check_regression(dict(current, cases_glob="a"), baseline) == ([], [])
    assert check_regression(baseline, current) == ([], [])


def test_profile_fleet_path():
    table = profile_case(Engine.LSM, "small", nclients=4, nshards=2, top=5)
    assert "fleet path" in table
    assert "shards2" in table


def test_bench_cli_cases_and_suite(capsys, tmp_path):
    out_path = tmp_path / "bench.json"
    assert main(["bench", "--smoke", "--repeat", "1", "--suite", "perf",
                 "--cases", "fig2-update-lsm", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "fig2-update-lsm" in out
    assert "pool4" not in out  # filtered away
    import json

    report = json.loads(out_path.read_text())
    assert report["suite"] == "perf"
    assert report["cases_glob"] == "fig2-update-lsm"
    assert "machine" in report
    assert "trace_overhead" not in report  # filtered runs skip the probe
    # an empty filter is an error, not an empty baseline
    assert main(["bench", "--smoke", "--repeat", "1",
                 "--cases", "nothing-matches", "--out", str(out_path)]) == 2
