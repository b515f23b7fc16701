"""Tests for table rendering and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _build_parser, _render_fleet, _spec_from_args, main
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.report import (SERIES_POINTS, render_campaign, render_series,
                               render_table)
from repro.units import MIB
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
        # fig2's two cells are two of fig3's four.
        from repro.core import figures

        monkeypatch.setattr(figures, "_CELLS", {})
        out_file = tmp_path / "figs.txt"
        code = main(["run-figure", "fig2", "fig3", "--scale", "small",
                     "--out", str(out_file)])
        assert code == 0
        fig2 = figures.fig2_steady_state(figures.SMALL).text
        fig3 = figures.fig3_drive_state(figures.SMALL).text
        assert capsys.readouterr().out == \
            f"{fig2}\n{fig3}\n4 cell(s) run, 2 shared\n"
        assert out_file.read_text() == f"{fig2}\n\n{fig3}\n"

    def test_run_figure_all_is_the_registry_in_order(self, capsys, monkeypatch):
        from repro.core import figures

        calls = []
        for name in figures.FIGURES:
            monkeypatch.setitem(
                figures.FIGURES, name,
                lambda scale, name=name: calls.append(name)
                or figures.FigureResult(name, name, {}, name))
        assert main(["run-figure", "all", "--scale", "small"]) == 0
        assert calls == list(figures.FIGURES)
        assert capsys.readouterr().out.endswith("fig11\n0 cell(s) run, 0 shared\n")

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
        out_path = str(tmp_path / "smoke.jsonl")
        assert main(["campaign", "--preset", "smoke", "--out", out_path]) == 0
        first = capsys.readouterr().out
        assert "4 cell(s) run, 0 resumed" in first
        assert len((tmp_path / "smoke.jsonl").read_text().splitlines()) == 4
        assert main(["campaign", "--preset", "smoke", "--out", out_path,
                     "--resume"]) == 0
        assert "0 cell(s) run, 4 resumed" in capsys.readouterr().out

    def test_campaign_requires_known_preset(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--preset", "nope"])
