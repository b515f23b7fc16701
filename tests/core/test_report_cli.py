"""Tests for table rendering and the command-line interface."""

from __future__ import annotations

import contextlib

import pytest

from repro.campaign import CampaignStore
from repro.cli import _build_parser, _render_fleet, _spec_from_args, main
from repro.core import figures
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.report import (SERIES_POINTS, render_campaign, render_series,
                               render_table)
from repro.units import MIB
from tests.conftest import count_requests, one_cpu
from tests.obs.schema import validate_chrome_trace


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(["name", "value"], [["a", 1.5], ["bb", 22.0]],
                            title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_float_formatting(self):
        text = render_table(["x"], [[0.1234], [123.4], [5.0], [0]])
        assert "0.123" in text
        assert "123" in text
        assert "5.00" in text

    def test_series_thinning(self):
        rows = [[i, i * 2] for i in range(100)]
        text = render_series("t", ["a", "b"], rows)
        body = text.splitlines()[3:]
        assert len(body) == SERIES_POINTS
        assert body[0].startswith("0")
        assert body[-1].startswith("99")

    def test_series_short_not_thinned(self):
        rows = [[i] for i in range(SERIES_POINTS)]
        text = render_series("t", ["a"], rows)
        assert len(text.splitlines()) == 3 + SERIES_POINTS


def test_run_and_campaign_render_the_same_shard_table():
    """A killed shard's down time shows wherever its row is printed."""
    result = run_experiment(ExperimentSpec(
        capacity_bytes=24 * MIB, dataset_fraction=0.3, max_ops=2500,
        nshards=2, arrival="poisson", arrival_rate=8000.0, queue_cap=16,
        kill_at=0.05, kill_shard=1))
    down = result.fleet["per_shard"][1]["downtime_seconds"]
    assert down > 0.0
    for text in (_render_fleet(result.fleet),
                 render_campaign([result.to_dict()])):
        header, _rule, _shard0, shard1 = text.splitlines()[-4:]
        assert "down ms" in header
        assert shard1.split()[-2] == f"{down * 1e3:.1f}"


class TestCli:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "repro" in capsys.readouterr().out

    def test_figures_listing(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        for fig in ("fig2", "fig5", "fig11"):
            assert fig in out

    def test_pitfalls_listing(self, capsys):
        assert main(["pitfalls"]) == 0
        out = capsys.readouterr().out
        assert "seven benchmarking pitfalls" in out
        assert "guideline" in out

    def test_run_small_experiment(self, capsys):
        code = main([
            "run", "--engine", "lsm", "--capacity-mib", "24",
            "--dataset-fraction", "0.4", "--duration", "1.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "WA-D" in out
        assert "steady state" in out

    def test_run_defaults_are_the_spec_defaults(self):
        """`repro run` with no flags is `ExperimentSpec()`: the CLI keeps
        no defaults of its own."""
        args = _build_parser().parse_args(["run"])
        assert _spec_from_args(args) == ExperimentSpec()

    def test_run_with_trace_writes_a_loadable_trace(self, tmp_path, capsys):
        """`--trace OUT` is the one CLI route to the flight recorder: the
        series table as without it, then the attribution table and a
        Chrome trace file that passes the schema checker."""
        out_file = tmp_path / "trace.json"
        code = main([
            "run", "--engine", "lsm", "--clients", "4", "--capacity-mib", "24",
            "--dataset-fraction", "0.4", "--duration", "1.0",
            "--trace", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "WA-D" in out and "per-client latency (4 clients)" in out
        assert "per-op latency attribution" in out
        assert f"trace written to {out_file}" in out
        assert validate_chrome_trace(str(out_file)) == []

    def test_run_btree_on_optane(self, capsys):
        code = main([
            "run", "--engine", "btree", "--ssd", "ssd3", "--capacity-mib", "24",
            "--dataset-fraction", "0.3", "--duration", "1.0",
        ])
        assert code == 0
        assert "btree on ssd3" in capsys.readouterr().out

    def test_run_figure_to_file(self, tmp_path, capsys, monkeypatch):
        """`--out F` keeps the sweep's cell records in F, not in the
        process's store; fig2's two cells are two of fig3's four."""
        held = CampaignStore()
        monkeypatch.setattr(figures, "STORE", held)
        out_file = tmp_path / "figs.jsonl"
        asked = count_requests(monkeypatch)
        code = main(["run-figure", "fig2", "fig3", "--scale", "small",
                     "--out", str(out_file)])
        assert code == 0 and asked == [6]
        assert figures.STORE is held and not held.cells
        printed = capsys.readouterr().out
        # The file's records give the same texts, running nothing.
        monkeypatch.setattr(figures, "STORE", CampaignStore(out_file))
        fig2 = figures.fig2_steady_state(figures.SMALL).text
        fig3 = figures.fig3_drive_state(figures.SMALL).text
        assert len(figures.STORE.cells) == 4
        assert printed == \
            f"{fig2}\n{fig3}\n4 cell(s) run, 4 held in {out_file}\n"
        assert len(out_file.read_text().splitlines()) == 4

    @pytest.mark.parametrize("pin", [one_cpu, contextlib.nullcontext],
                             ids=["one-cpu", "pooled"])
    def test_interrupted_figure_sweep_reruns_to_the_same_bytes(
            self, pin, tmp_path, capsys):
        """A `run-figure --out` sweep cut short after k records, once
        with a torn tail, and re-run with the same --out: the file's
        bytes and the printed texts are the uninterrupted run's.  A
        finished sweep re-run simulates nothing and leaves the file
        alone."""
        argv = ["run-figure", "fig2", "fig3", "--scale", "small", "--out"]
        full = tmp_path / "full.jsonl"
        assert main(argv + [str(full)]) == 0
        texts, _closing = capsys.readouterr().out[:-1].rsplit("\n", 1)
        lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
        cuts = {"cut.jsonl": "".join(lines[:1]),
                "torn.jsonl": "".join(lines[:2]) + lines[2][:40]}
        with pin():
            for name, kept in cuts.items():
                cut = tmp_path / name
                cut.write_text(kept, encoding="utf-8")
                assert main(argv + [str(cut)]) == 0
                ran = 4 - kept.count("\n")
                assert capsys.readouterr().out == \
                    f"{texts}\n{ran} cell(s) run, 4 held in {cut}\n"
                assert cut.read_bytes() == full.read_bytes()
            before = full.read_bytes()
            assert main(argv + [str(full)]) == 0
            assert capsys.readouterr().out == \
                f"{texts}\n0 cell(s) run, 4 held in {full}\n"
            assert full.read_bytes() == before

    def test_run_figure_all_is_the_registry_in_order(self, capsys, monkeypatch):
        calls = []
        for name in figures.FIGURES:
            monkeypatch.setitem(
                figures.FIGURES, name,
                lambda scale, name=name: calls.append(name)
                or figures.FigureResult(name, name, {}, name))
        assert main(["run-figure", "all", "--scale", "small"]) == 0
        assert calls == list(figures.FIGURES)
        assert capsys.readouterr().out.endswith("fig11\n0 cell(s) run\n")

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run-figure", "fig99"])

    @pytest.mark.parametrize("bad", [
        ["--clients", "0"],
        ["--read-fraction", "0.8", "--scan-fraction", "0.5"],
        ["--seed", "-1"],
        ["--engine", "btree", "--value-bytes", "40000"],
    ])
    def test_bad_spec_is_one_line_on_stderr_and_exit_2(self, bad, capsys):
        assert main(["run", "--engine", "lsm", "--capacity-mib", "24"] + bad) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("bad, message", [
        (["--merge", "only-an-output.jsonl"], "--merge needs"),
        (["--merge", "out.jsonl", "no-such-input.jsonl"], "does not exist"),
        ([], "--preset is required"),
        (["--render", "no-such-campaign.jsonl"], "does not exist"),
    ])
    def test_campaign_misuse_is_one_line_on_stderr_and_exit_2(
            self, bad, message, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["campaign"] + bad) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mix", [
        ["--engine", "btree", "--read-fraction", "1.0"],
        ["--engine", "lsm", "--read-fraction", "0.5", "--scan-fraction", "0.5"],
    ])
    def test_write_free_run_ends_on_its_op_budget(self, mix, capsys):
        """No op of these mixes moves the host-write stop condition."""
        assert main(["run", "--capacity-mib", "24", "--duration", "0.2"]
                    + mix) == 0
        assert "steady state" in capsys.readouterr().out

    def test_run_with_scan_delete_mix(self, capsys):
        code = main([
            "run", "--engine", "lsm", "--capacity-mib", "24",
            "--dataset-fraction", "0.3", "--duration", "1.0",
            "--scan-fraction", "0.1", "--scan-length", "20",
            "--delete-fraction", "0.1", "--distribution", "zipfian",
        ])
        assert code == 0
        assert "steady state" in capsys.readouterr().out

    def test_campaign_dry_run_prints_grid_and_audit(self, capsys):
        assert main(["campaign", "--preset", "smoke", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "4 cells" in out
        assert "pitfall" in out
        assert "engine=lsm" in out

    def test_campaign_runs_and_resumes(self, tmp_path, capsys):
        """The same command twice: the second run reuses every cell
        its output file holds and leaves the file alone."""
        out_path = tmp_path / "smoke.jsonl"
        argv = ["campaign", "--preset", "smoke", "--out", str(out_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "4 cell(s) run, 0 resumed" in first
        before = out_path.read_bytes()
        assert len(before.splitlines()) == 4
        assert main(argv) == 0
        assert "0 cell(s) run, 4 resumed" in capsys.readouterr().out
        assert out_path.read_bytes() == before

    def test_rendering_an_empty_campaign_file_is_one_error(self, tmp_path, capsys):
        """A file with no completed record is a bad input, like a
        missing one: one `error:` line on stderr, exit 2."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"cell":"torn', encoding="utf-8")
        assert main(["campaign", "--render", str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(empty) in captured.err
        assert captured.err.count("\n") == 1

    def test_campaign_requires_known_preset(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--preset", "nope"])
