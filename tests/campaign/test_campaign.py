"""Tests for the campaign orchestration subsystem.

Covers grid expansion, the pitfall self-audit, JSONL persistence, the
multiprocessing path, and the headline reuse guarantee: a campaign
interrupted mid-grid and re-run on the same file produces
byte-identical merged results to an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest

from repro.campaign import (
    PRESETS,
    CampaignSpec,
    CampaignStore,
    canonical_line,
    merge_stores,
    run_campaign,
    runner,
)
from repro.cli import main
from repro.core import figures
from repro.core.experiment import Engine, ExperimentResult, ExperimentSpec
from repro.core.pitfalls import check_plan, plan_from_specs
from repro.errors import CampaignError, ConfigError
from repro.flash.state import DriveState
from repro.units import MIB
from tests.conftest import NEEDS_A_POOL, one_cpu

#: Cells small enough that a full campaign runs in well under a second.
MICRO_BASE = ExperimentSpec(
    capacity_bytes=24 * MIB,
    dataset_fraction=0.3,
    duration_capacity_writes=50.0,
    sample_interval=0.05,
    max_ops=2000,
)


def micro_campaign(name: str = "micro") -> CampaignSpec:
    return CampaignSpec(
        name=name,
        base=MICRO_BASE,
        axes={
            "engine": (Engine.LSM, Engine.BTREE),
            "dataset_fraction": (0.25, 0.3),
        },
    )


run_cell = runner.run_cell


def run_cell_or_die(spec, trace_path=None):
    """The cell runner, except that the last cell of the micro grid
    takes its worker process down (module level: the pool pickles it by
    name)."""
    if (spec.engine, spec.dataset_fraction) == ("btree", 0.3):
        os._exit(9)
    return run_cell(spec, trace_path)


def run_cell_first_last(spec, trace_path=None):
    """The cell runner, except that the first cell of the micro grid
    finishes after the others have."""
    if (spec.engine, spec.dataset_fraction) == ("lsm", 0.25):
        time.sleep(1.0)
    return run_cell(spec, trace_path)


def to_jsonl(outcome) -> str:
    """A campaign's merged results as canonical JSONL text, grid order."""
    return "".join(canonical_line(record) + "\n" for record in outcome.records)


class TestGridExpansion:
    def test_cross_product_in_grid_order(self):
        campaign = micro_campaign()
        cells = campaign.cells()
        assert len(cells) == 4
        assert [(c.engine.value, c.dataset_fraction) for c in cells] == [
            ("lsm", 0.25), ("lsm", 0.3), ("btree", 0.25), ("btree", 0.3),
        ]

    def test_cells_inherit_base_and_get_named(self):
        cells = micro_campaign().cells()
        assert all(c.capacity_bytes == MICRO_BASE.capacity_bytes for c in cells)
        assert all(c.max_ops == MICRO_BASE.max_ops for c in cells)
        assert cells[0].name == "micro/engine=lsm,dataset_fraction=0.25"

    def test_key_for_uses_axis_values(self):
        campaign = micro_campaign()
        assert campaign.key_for(campaign.cells()[-1]) == ("btree", 0.3)

    def test_axis_validation(self):
        with pytest.raises(ConfigError):
            CampaignSpec("bad", MICRO_BASE, {})
        with pytest.raises(ConfigError):
            CampaignSpec("bad", MICRO_BASE, {"no_such_field": (1,)})
        with pytest.raises(ConfigError):
            CampaignSpec("bad", MICRO_BASE, {"engine": ()})
        with pytest.raises(ConfigError):
            CampaignSpec("bad", MICRO_BASE, {"ssd": ("ssd1", "ssd1")})
        with pytest.raises(ConfigError):
            CampaignSpec("bad", MICRO_BASE, {"name": ("a", "b")})

    def test_axis_values_validated_like_any_spec(self):
        for axis in ({"read_fraction": (0.0, 1.5)},
                     # Name typos fail at expansion, not in a worker.
                     {"distribution": ("uniform", "unifrom")},
                     {"router": ("hash", "rnage")}):
            campaign = CampaignSpec("bad", MICRO_BASE, axis)
            with pytest.raises(ConfigError):
                campaign.cells()


class TestPlanDerivation:
    def test_plan_reflects_grid_coverage(self):
        plan = plan_from_specs([
            ExperimentSpec(ssd="ssd1", dataset_fraction=0.25),
            ExperimentSpec(ssd="ssd2", dataset_fraction=0.5,
                           op_reserved_fraction=0.1),
        ])
        assert plan.dataset_fractions == (0.25, 0.5)
        assert plan.ssd_types == ("ssd1", "ssd2")
        assert plan.considers_overprovisioning

    def test_plan_from_no_specs_rejected(self):
        with pytest.raises(ConfigError):
            plan_from_specs([])

    def test_paper_core_preset_clears_all_seven_pitfalls(self):
        assert check_plan(PRESETS["paper-core"].plan()) == []

    def test_smoke_preset_reports_what_it_skips(self):
        violated = {v.pitfall_id for v in check_plan(PRESETS["smoke"].plan())}
        assert violated == {6, 7}  # one SSD type, no OP sweep — by design

    def test_single_cell_grid_is_audited_as_narrow(self):
        campaign = CampaignSpec("solo", MICRO_BASE, {"engine": (Engine.LSM,)})
        violated = {v.pitfall_id for v in check_plan(campaign.plan())}
        assert 4 in violated and 7 in violated


class TestStore:
    def test_append_load_roundtrip(self, tmp_path):
        store = CampaignStore(tmp_path / "results.jsonl")
        store.append({"cell": "abc", "x": 1.5})
        store.append({"cell": "def", "x": [1, 2]})
        loaded = CampaignStore(store.path).cells
        assert loaded == store.cells
        assert set(loaded) == {"abc", "def"}
        assert loaded["abc"]["x"] == 1.5

    def test_a_store_without_a_path_holds_its_records(self):
        store = CampaignStore()
        store.append({"cell": "abc", "x": 1})
        store.append({"cell": "abc", "x": 2})
        assert store.path is None
        assert store.cells == {"abc": {"cell": "abc", "x": 1}}

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = CampaignStore(path)
        store.append({"cell": "abc", "x": 1})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"cell": "trunc')  # killed mid-write
        assert set(CampaignStore(path).cells) == {"abc"}

    def test_append_after_torn_tail_keeps_every_completed_cell(self, tmp_path):
        """A killed worker's fragment must not swallow the next record."""
        path = tmp_path / "results.jsonl"
        store = CampaignStore(path)
        store.append({"cell": "a"})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"cell":"b","x"')  # killed mid-write, no newline
        store.append({"cell": "c"})
        assert set(CampaignStore(path).cells) == {"a", "c"}
        assert path.read_text(encoding="utf-8") == '{"cell":"a"}\n{"cell":"c"}\n'

    def test_torn_tail_longer_than_one_read_chunk(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = CampaignStore(path)
        big = {"cell": "big", "x": "y" * 200_000}
        store.append(big)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"cell":"torn","x":"' + "z" * 200_000)
        store.append({"cell": "c"})
        assert CampaignStore(path).cells == {"big": big, "c": {"cell": "c"}}
        # A file that is nothing but a fragment is emptied, not glued to.
        path.write_text('{"cell":"torn"', encoding="utf-8")
        store.append({"cell": "c"})
        assert path.read_text(encoding="utf-8") == '{"cell":"c"}\n'

    def test_unterminated_record_is_not_complete(self, tmp_path):
        """Complete iff newline-terminated: a store must not hold a
        cell that the next append() is going to drop."""
        path = tmp_path / "results.jsonl"
        path.write_text('{"cell":"a"}\n{"cell":"b"}', encoding="utf-8")
        assert set(CampaignStore(path).cells) == {"a"}

    def test_missing_file_is_empty(self, tmp_path):
        assert CampaignStore(tmp_path / "nope.jsonl").cells == {}


class TestRunCampaign:
    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        """One uninterrupted reference pass, persisted to disk."""
        path = tmp_path_factory.mktemp("campaign") / "ref.jsonl"
        outcome = run_campaign(micro_campaign(), out=path)
        return outcome, path

    def test_grid_ordered_records_and_results(self, finished):
        outcome, _path = finished
        assert outcome.ran == 4 and outcome.skipped == 0
        assert [record["spec"]["engine"] for record in outcome.records] == \
            ["lsm", "lsm", "btree", "btree"]
        campaign = micro_campaign()
        results = {campaign.key_for(result.spec): result for result in
                   map(ExperimentResult.from_record, outcome.records)}
        assert list(results) == [("lsm", 0.25), ("lsm", 0.3),
                                 ("btree", 0.25), ("btree", 0.3)]
        assert all(r.steady is not None for r in results.values())

    def test_one_jsonl_line_per_cell(self, finished):
        outcome, path = finished
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert {json.loads(line)["cell"] for line in lines} == \
            {record["cell"] for record in outcome.records}

    def test_resume_skips_every_finished_cell(self, finished):
        """The same campaign on the same file, twice, with no flag: the
        second run reuses all four cells and leaves the file alone."""
        outcome, path = finished
        before = path.read_bytes()
        resumed = run_campaign(micro_campaign(), out=path)
        assert resumed.ran == 0 and resumed.skipped == 4
        assert to_jsonl(resumed) == to_jsonl(outcome)
        assert path.read_bytes() == before

    def test_interrupted_campaign_resumes_byte_identically(self, finished):
        """Kill a campaign mid-grid; the resumed merged results must be
        byte-identical to the uninterrupted run's."""
        outcome, path = finished
        interrupted = path.parent / "interrupted.jsonl"
        survivors = path.read_text(encoding="utf-8").splitlines()[:2]
        interrupted.write_text("\n".join(survivors) + "\n", encoding="utf-8")
        resumed = run_campaign(micro_campaign(), out=interrupted)
        assert resumed.ran == 2 and resumed.skipped == 2
        assert to_jsonl(resumed) == to_jsonl(outcome)
        # And the store itself now holds all four cells.
        assert len(CampaignStore(interrupted).cells) == 4

    def test_torn_file_resumes_to_the_uninterrupted_bytes(self, finished):
        """Kill a worker mid-append: two whole lines and a fragment of
        the third.  The resumed file must equal the uninterrupted
        run's, byte for byte."""
        outcome, path = finished
        torn = path.parent / "torn.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        torn.write_text("\n".join(lines[:2]) + "\n" + lines[2][:40],
                        encoding="utf-8")
        resumed = run_campaign(micro_campaign(), out=torn)
        assert resumed.ran == 2 and resumed.skipped == 2
        assert to_jsonl(resumed) == to_jsonl(outcome)
        assert torn.read_bytes() == path.read_bytes()

    @NEEDS_A_POOL
    def test_worker_pool_matches_inline_run(self, finished):
        """The multiprocessing path must be a pure speedup: the grid
        with the process pinned to one CPU (the cells run inline) and on
        every CPU it may run on (a pool wherever that is two or more)
        gives the same records."""
        outcome, _path = finished
        with one_cpu():
            inline = run_campaign(micro_campaign())
        pooled = run_campaign(micro_campaign())
        assert inline.ran == pooled.ran == 4
        assert inline.records == pooled.records
        assert to_jsonl(pooled) == to_jsonl(outcome)

    @NEEDS_A_POOL
    def test_store_is_written_in_grid_order(self, finished, monkeypatch):
        """A pool appends records in grid order, not completion order:
        with the first cell finishing last, the file and what progress
        sees are still the uninterrupted run's."""
        _outcome, path = finished
        out = path.parent / "first-last.jsonl"
        seen = []
        monkeypatch.setattr(runner, "run_cell", run_cell_first_last)
        run_campaign(micro_campaign(), out=out, progress=seen.append)
        assert out.read_bytes() == path.read_bytes()
        assert [record["cell"] for record in seen] == \
            [spec.stable_hash() for spec in micro_campaign().cells()]

    @NEEDS_A_POOL
    def test_dead_worker_ends_in_a_resumable_error(self, finished, monkeypatch):
        """A worker that dies mid-cell: one error naming the unfinished
        cells and the file, every finished cell on disk, and a re-run
        that runs exactly the rest to the uninterrupted records."""
        outcome, path = finished
        out = path.parent / "dead-worker.jsonl"
        names = [spec.name for spec in micro_campaign().cells()]
        with monkeypatch.context() as patched:
            patched.setattr(runner, "run_cell", run_cell_or_die)
            with pytest.raises(CampaignError, match="re-run the same command") as error:
                run_campaign(micro_campaign(), out=out)
        message = str(error.value)
        assert str(out) in message and names[3] in message
        on_disk = CampaignStore(out).cells
        assert on_disk  # the fourth cell starts only after one finished
        for record, name in zip(outcome.records, names):
            assert (record["cell"] in on_disk) != (name in message)
        resumed = run_campaign(micro_campaign(), out=out)
        assert resumed.ran == 4 - len(on_disk)
        assert resumed.skipped == len(on_disk)
        assert to_jsonl(resumed) == to_jsonl(outcome)
        assert len(CampaignStore(out).cells) == 4

    @NEEDS_A_POOL
    def test_dead_figure_worker_ends_in_one_error(self, tmp_path, monkeypatch):
        """A figure's cell runner on the same pool: one error naming the
        lost cells, the finished cells kept in the figures' store, and
        a re-run that simulates only the lost ones.  Only a store with
        a file (``run-figure --out``) is named, with the re-run hint."""
        cells = dict(enumerate(micro_campaign().cells()))
        for path in (None, tmp_path / "figures.jsonl"):
            store = CampaignStore(path)
            monkeypatch.setattr(figures, "STORE", store)
            with monkeypatch.context() as patched:
                patched.setattr(runner, "run_cell", run_cell_or_die)
                with pytest.raises(CampaignError) as error:
                    figures.run_cells(cells)
            message = str(error.value)
            assert message.startswith("a worker died with ")
            assert cells[3].name in message
            named = path is not None and str(path) in message
            assert named == ("re-run" in message) == (path is not None)
            lost = [spec for spec in cells.values() if spec.name in message]
            assert len(store.cells) == 4 - len(lost)
            assert CampaignStore(path).cells == (store.cells if path else {})
            results = figures.run_cells(cells)
            assert len(store.cells) == 4
            assert [r.spec for r in results.values()] == list(cells.values())

    def test_a_twice_recorded_cell_is_its_first_record(self, finished, capsys):
        """One cell recorded twice (say by two campaigns whose files
        were joined with `cat`): render, reuse and merge all take the
        first record."""
        _outcome, path = finished
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        twin = {**json.loads(lines[0]), "campaign": "twin"}
        doubled = path.parent / "doubled.jsonl"
        doubled.write_text("".join(lines) + canonical_line(twin) + "\n",
                           encoding="utf-8")
        before = doubled.read_bytes()
        assert main(["campaign", "--render", str(doubled)]) == 0
        assert "campaign micro (4 cells" in capsys.readouterr().out
        rerun = run_campaign(micro_campaign(), out=doubled)
        assert rerun.ran == 0 and rerun.records[0]["campaign"] == "micro"
        assert doubled.read_bytes() == before
        merged = path.parent / "doubled-merged.jsonl"
        assert merge_stores(merged, [doubled]) == (4, 1)
        assert merged.read_bytes() == path.read_bytes()

    def test_progress_callback_sees_every_fresh_cell(self):
        seen = []
        outcome = run_campaign(micro_campaign(), progress=seen.append)
        assert sorted(canonical_line(record) for record in seen) == \
            sorted(canonical_line(record) for record in outcome.records)

    @pytest.mark.parametrize("age", ["hash-with-name", "deleted-field"])
    def test_resume_refuses_a_stale_record(self, finished, age, capsys):
        """A record written before the hash dropped ``name``, or before
        a spec field was deleted, is keyed by what is no longer its
        spec's hash: a re-run refuses the file (it would run the cell
        again and record it twice), ``--render`` still shows it."""
        _outcome, path = finished
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        if age == "hash-with-name":
            canonical = json.dumps(record["spec"], sort_keys=True,
                                   separators=(",", ":"))
            record["cell"] = hashlib.sha256(canonical.encode()).hexdigest()[:16]
        else:
            record["spec"]["fs_discard"] = False
        stale = path.parent / f"stale-{age}.jsonl"
        stale.write_text("\n".join([canonical_line(record), *lines[1:2]]) + "\n",
                         encoding="utf-8")
        before = stale.read_bytes()
        with pytest.raises(ConfigError, match=str(stale)):
            run_campaign(micro_campaign(), out=stale)
        assert stale.read_bytes() == before
        assert main(["campaign", "--render", str(stale)]) == 0
        assert record["cell"] in capsys.readouterr().out
        assert stale.read_bytes() == before

    def test_outcome_carries_the_pitfall_audit(self, finished):
        outcome, _path = finished
        violated = {v.pitfall_id for v in outcome.violations}
        assert 7 in violated  # micro grid uses one SSD type — flagged


class TestRenderCampaign:
    def test_consolidated_table_from_records(self, tmp_path):
        from repro.core.report import render_campaign

        outcome = run_campaign(micro_campaign())
        text = render_campaign(outcome.records, title="micro")
        lines = text.splitlines()
        assert lines[0] == "micro"
        assert "engine" in lines[1] and "WA-D" in lines[1]
        assert len(lines) == 3 + 4  # title + header + rule + one row per cell
        assert canonical_line(outcome.records[0]).startswith(
            '{"attribution":null,"campaign":"micro"'
        )
