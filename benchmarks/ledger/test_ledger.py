"""Tier-1 tests of the perf ledger (collected from the repo root).

One ``--quick`` run of two workloads with the traced pass feeds most
assertions; traced runs only ever happen in child processes, so the
class-level probes never leak into this test process.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import probes
import run
from workloads import E2E, LAYERS, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
QUICK = ("lsm-update", "btree-pool16")


def ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "quick.json"
    proc = ledger("--quick", "--workloads", ",".join(QUICK), "--traced",
                  "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(out.read_text(encoding="utf-8"))


def test_quick_run_is_labelled_not_a_baseline(quick_report):
    stdout, report = quick_report
    assert "NOT A BASELINE" in stdout
    assert report["baseline"] is False
    assert set(report["machine"]) >= {"git_sha", "nproc", "python", "numpy"}


def test_quick_run_yields_every_declared_metric(quick_report):
    stdout, report = quick_report
    assert set(report["workloads"]) == set(QUICK)
    for name, entry in report["workloads"].items():
        assert set(entry["e2e"]) == {m.name for m in E2E}
        assert set(entry["per_layer"]) == {m.name for m in PER_LAYER}
        for metric in E2E:
            assert entry["e2e"][metric.name]["median"] > 0, (name, metric.name)
            assert f"{metric.name} " in stdout and metric.unit in stdout
        assert entry["why"] and entry["spec"]["seed"] == report["seed"]


def test_traced_run_matches_untraced_and_adds_up(quick_report):
    _stdout, report = quick_report
    # Fingerprint (traced == untraced) and every output check.
    assert report["problems"] == []
    for name, entry in report["workloads"].items():
        trace, layers = entry["trace"], entry["per_layer"]
        # Σ raw self + root remainder + measured probe bookkeeping is
        # the traced root span, to the nanosecond.
        assert trace["raw_total_s"] == pytest.approx(trace["root_span_s"],
                                                     abs=1e-9)
        shares = sum(layers[f"{layer}.self_share"] for layer in LAYERS)
        assert shares == pytest.approx(1.0, abs=1e-9)
        assert layers["driver.trace_overhead_frac"] > -0.5
        engine = "lsm" if name.startswith("lsm") else "btree"
        assert layers[f"{engine}.calls"] > 0 and layers["flash.ssd.calls"] > 0
    pool = report["workloads"]["btree-pool16"]["per_layer"]
    assert pool["sim.calls"] > 0 and pool["sim.lat_samples"] > 0
    assert report["workloads"]["lsm-update"]["per_layer"]["lsm.compactions"] > 0


def test_driver_form_prints_one_json_object_last():
    proc = ledger("--workload", "lsm-update", "--quick", "--seed", "7",
                  "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert {name: row["unit"] for name, row in last["metrics"].items()} == \
        {m.name: m.unit for m in E2E}


def test_every_layer_resolves_a_probe_and_new_entry_points_show():
    resolved = {layer for layer, *_ in probes.resolve()}
    assert resolved == set(LAYERS) - {"driver"}
    listing = probes.unprobed()
    print("\npublic methods on probed classes without a probe:")
    for layer, cls, methods in listing:
        print(f"  {layer:<10} {cls}: {', '.join(methods)}")
    assert all(methods for _layer, _cls, methods in listing)


def test_speed_reference_counts_segments_in_kernel_executions():
    from reference import DUTY, SpeedReference

    started = time.perf_counter()
    reference = SpeedReference(started)
    time.sleep(0.02)
    kernel_s = reference.close_segment()
    (seconds, units), = reference.segments
    assert 0.02 <= seconds < time.perf_counter() - started
    assert kernel_s >= DUTY * seconds
    # units = seconds / mean kernel time, over at least one execution.
    assert kernel_s / (seconds / units) == pytest.approx(
        round(kernel_s / (seconds / units)))
    assert reference.close_segment() > 0 and len(reference.segments) == 2


def test_manifest_repeats_the_declarations():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest["paths"] == ["benchmarks/ledger"]
    assert manifest["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in E2E]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in manifest[key]]
    assert len(names) == len(set(names))
    assert all(run.LEGAL_NAME.fullmatch(name) for name in names)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        e["bound"] for e in manifest["end_to_end"])
        for m in manifest["end_to_end"])


def test_ledger_stays_on_the_default_public_route():
    """Nothing item 2 of the ROADMAP is about to delete may be used."""
    forbidden = re.compile(
        r"repro\.bench|repro\.kernels|REPRO_KERNELS|use_client_pool"
        r"|\bbatch(ed)?\s*=")
    for path in sorted(HERE.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        hits = forbidden.findall(path.read_text(encoding="utf-8"))
        assert not hits, (path.name, hits)
