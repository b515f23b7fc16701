"""End-to-end tracing invariants (the CI trace-smoke contract).

Two properties make the flight recorder trustworthy:

* **Invariance**: attaching a tracer changes no simulated result —
  traced and untraced runs of the same spec serialize identically
  (apart from the additive ``attribution`` field).  Together with the
  bench fingerprint baseline (which pins tracing-*off* against the
  seed), this is the zero-perturbation guarantee of DESIGN.md §9.3.
* **Accounting**: every op span's attribution components sum to its
  recorded latency, the attribution table covers exactly the measured
  ops, and the exported file passes the Chrome trace_event schema
  checker.

``repro run --trace`` and a traced campaign share one cell runner
(``run_cell``), and both say how many events the bounded ring evicted.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.cli import _build_parser, _spec_from_args, main
from repro.core.experiment import Engine, ExperimentSpec, run_experiment
from repro.flash.state import DriveState
from repro.obs import Tracer, write_chrome_trace
from repro.units import MIB
from tests.conftest import one_cpu
from tests.obs.schema import validate_chrome_trace


def _pool_spec(engine: Engine) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"trace-smoke-{engine.value}",
        engine=engine,
        capacity_bytes=32 * MIB,
        dataset_fraction=0.4,
        value_bytes=1024,
        read_fraction=0.2,
        scan_fraction=0.1,
        scan_length=10,
        drive_state=DriveState.TRIMMED,
        duration_capacity_writes=0.5,
        nclients=4,
    )


@pytest.fixture(scope="module", params=[Engine.LSM, Engine.BTREE],
                ids=["lsm", "btree"])
def traced_run(request):
    spec = _pool_spec(request.param)
    baseline = run_experiment(spec)
    tracer = Tracer()
    traced = run_experiment(spec, tracer=tracer)
    return spec, baseline, traced, tracer


class TestInvariance:
    def test_tracing_changes_no_simulated_result(self, traced_run):
        _spec, baseline, traced, _tracer = traced_run
        base = baseline.to_dict()
        with_trace = traced.to_dict()
        assert base.pop("attribution") is None
        assert with_trace.pop("attribution") is not None
        assert with_trace == base

    def test_untraced_result_has_no_attribution(self, traced_run):
        _spec, baseline, _traced, _tracer = traced_run
        assert baseline.attribution is None


class TestAccounting:
    def test_op_components_sum_to_total(self, traced_run):
        *_rest, tracer = traced_run
        op_spans = [e for e in tracer.events() if e[4] == "op"]
        assert op_spans, "trace recorded no op spans"
        for _ph, _t0, dur, _name, _cat, _tid, args in op_spans:
            parts = sum(v for k, v in args.items() if k != "total")
            assert parts == pytest.approx(args["total"], abs=1e-9)
            assert args["total"] == pytest.approx(dur, abs=1e-12)

    def test_attribution_covers_measured_ops_exactly(self, traced_run):
        _spec, _baseline, traced, _tracer = traced_run
        table = traced.attribution
        assert sum(row["ops"] for row in table.values()) == traced.ops_issued
        # Attributed seconds equal the recorded per-op latencies.
        recorded = traced.client_latencies.pooled().sum()
        attributed = sum(row["latency_seconds"] for row in table.values())
        assert attributed == pytest.approx(recorded, rel=1e-9)

    def test_update_and_read_kinds_present(self, traced_run):
        _spec, _baseline, traced, _tracer = traced_run
        assert {"update", "read", "scan"} <= set(traced.attribution)

    def test_spans_cover_measured_phase_only(self, traced_run):
        _spec, _baseline, traced, tracer = traced_run
        run_start = traced.load_seconds  # virtual clock at enable()
        first_ts = min(e[1] for e in tracer.events())
        assert first_ts >= run_start - 1e-9


class TestExport:
    def test_exported_trace_passes_schema(self, traced_run, tmp_path):
        _spec, _baseline, traced, tracer = traced_run
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(tracer.events(), path,
                                   attribution=traced.attribution)
        assert count > 0
        assert validate_chrome_trace(path) == []


class TestStableHash:
    def test_tracer_does_not_change_the_cell_hash(self):
        # The tracer is a run parameter, not a spec field: traced and
        # untraced campaigns must agree on cell identity for resume.
        spec = _pool_spec(Engine.LSM)
        assert "tracer" not in spec.to_dict()


#: A ring far smaller than the events one traced cell emits.
SMALL_RING = 300

RUN_ARGS = ["run", "--engine", "lsm", "--clients", "2", "--capacity-mib", "24",
            "--dataset-fraction", "0.3", "--duration", "0.5"]


def trace_events(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["traceEvents"]


class TestTraceRoute:
    def test_run_and_campaign_report_what_the_ring_evicted(
            self, tmp_path, capsys, monkeypatch):
        """With a ring smaller than the run, ``repro run --trace`` prints
        ``emitted - capacity`` evicted events; a traced campaign cell of
        the same spec records that count, writes its trace to
        ``PREFIX-<cell>.json`` byte for byte as the run did, and
        ``campaign --render`` prints the count beside its table."""
        whole = tmp_path / "whole.json"
        assert main([*RUN_ARGS, "--trace", str(whole)]) == 0
        assert "0 older ones evicted from the ring" in capsys.readouterr().out
        emitted = sum(event["ph"] != "M" for event in trace_events(whole))
        assert emitted > SMALL_RING

        monkeypatch.setattr(Tracer, "RING_CAPACITY", SMALL_RING)
        ring = tmp_path / "ring.json"
        assert main([*RUN_ARGS, "--trace", str(ring)]) == 0
        events = trace_events(ring)
        assert sum(event["ph"] != "M" for event in events) == SMALL_RING
        assert validate_chrome_trace(str(ring)) == []
        counts = (f"{len(events)} events, {emitted - SMALL_RING} older ones "
                  f"evicted from the ring")
        assert f"trace written to {ring} ({counts}; open at " \
            in capsys.readouterr().out

        spec = _spec_from_args(_build_parser().parse_args(RUN_ARGS))
        campaign = CampaignSpec("traced", replace(spec, name="base"),
                                {"seed": (spec.seed,)})
        prefix, out = tmp_path / "cells", tmp_path / "traced.jsonl"
        with one_cpu():  # the patched ring is this process's
            (record,) = run_campaign(campaign, out=out,
                                     trace_out=str(prefix)).records
        cell = spec.stable_hash()
        assert record["cell"] == cell
        assert record["trace"] == {"events": len(events),
                                   "dropped": emitted - SMALL_RING}
        traced = tmp_path / f"cells-{cell}.json"
        assert traced.read_bytes() == ring.read_bytes()
        capsys.readouterr()
        assert main(["campaign", "--render", str(out)]) == 0
        assert f"trace [{cell}]: {counts}" in capsys.readouterr().out
