"""Tests for the campaign orchestration subsystem.

Covers grid expansion, the pitfall self-audit, JSONL persistence, the
multiprocessing path, and the headline resume guarantee: a campaign
interrupted mid-grid and resumed produces byte-identical merged
results to an uninterrupted run.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import (
    PRESETS,
    CampaignSpec,
    CampaignStore,
    canonical_line,
    run_campaign,
    runner,
)
from repro.core.experiment import Engine, ExperimentSpec
from repro.core.pitfalls import check_plan, plan_from_specs
from repro.errors import CampaignError, ConfigError
from repro.flash.state import DriveState
from repro.units import MIB

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


_execute_cell = runner._execute_cell


def execute_cell_or_die(spec_dict, trace_out=None):
    """The worker entry point, except that the last cell of the micro
    grid takes its worker process down (module level: the pool pickles
    it by name)."""
    if (spec_dict["engine"], spec_dict["dataset_fraction"]) == ("btree", 0.3):
        os._exit(9)
    return _execute_cell(spec_dict, trace_out)


class TestGridExpansion:
    def test_cross_product_in_grid_order(self):
        campaign = micro_campaign()
        cells = campaign.cells()
        assert campaign.ncells == len(cells) == 4
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
        campaign = CampaignSpec("bad", MICRO_BASE,
                                {"read_fraction": (0.0, 1.5)})
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
        loaded = store.load()
        assert set(loaded) == {"abc", "def"}
        assert loaded["abc"]["x"] == 1.5

    def test_torn_final_line_is_ignored(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = CampaignStore(path)
        store.append({"cell": "abc", "x": 1})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"cell": "trunc')  # killed mid-write
        assert set(store.load()) == {"abc"}

    def test_append_after_torn_tail_keeps_every_completed_cell(self, tmp_path):
        """A killed worker's fragment must not swallow the next record."""
        path = tmp_path / "results.jsonl"
        store = CampaignStore(path)
        store.append({"cell": "a"})
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"cell":"b","x"')  # killed mid-write, no newline
        store.append({"cell": "c"})
        assert set(store.load()) == {"a", "c"}
        assert path.read_text(encoding="utf-8") == '{"cell":"a"}\n{"cell":"c"}\n'

    def test_torn_tail_longer_than_one_read_chunk(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = CampaignStore(path)
        big = {"cell": "big", "x": "y" * 200_000}
        store.append(big)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"cell":"torn","x":"' + "z" * 200_000)
        store.append({"cell": "c"})
        assert store.load() == {"big": big, "c": {"cell": "c"}}
        # A file that is nothing but a fragment is emptied, not glued to.
        path.write_text('{"cell":"torn"', encoding="utf-8")
        store.append({"cell": "c"})
        assert path.read_text(encoding="utf-8") == '{"cell":"c"}\n'

    def test_unterminated_record_is_not_complete(self, tmp_path):
        """Complete iff newline-terminated: load() must not report a
        cell that the next append() is going to drop."""
        path = tmp_path / "results.jsonl"
        path.write_text('{"cell":"a"}\n{"cell":"b"}', encoding="utf-8")
        assert set(CampaignStore(path).load()) == {"a"}

    def test_missing_file_is_empty(self, tmp_path):
        assert CampaignStore(tmp_path / "nope.jsonl").load() == {}


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
        results = outcome.results()
        assert set(results) == {("lsm", 0.25), ("lsm", 0.3),
                                ("btree", 0.25), ("btree", 0.3)}
        assert all(r.steady is not None for r in results.values())

    def test_one_jsonl_line_per_cell(self, finished):
        outcome, path = finished
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        assert {json.loads(line)["cell"] for line in lines} == \
            {cell.cell_hash for cell in outcome.cells}

    def test_resume_skips_every_finished_cell(self, finished):
        outcome, path = finished
        resumed = run_campaign(micro_campaign(), out=path, resume=True)
        assert resumed.ran == 0 and resumed.skipped == 4
        assert all(cell.from_cache for cell in resumed.cells)
        assert resumed.to_jsonl() == outcome.to_jsonl()

    def test_interrupted_campaign_resumes_byte_identically(self, finished):
        """Kill a campaign mid-grid; the resumed merged results must be
        byte-identical to the uninterrupted run's."""
        outcome, path = finished
        interrupted = path.parent / "interrupted.jsonl"
        survivors = path.read_text(encoding="utf-8").splitlines()[:2]
        interrupted.write_text("\n".join(survivors) + "\n", encoding="utf-8")
        resumed = run_campaign(micro_campaign(), out=interrupted, resume=True)
        assert resumed.ran == 2 and resumed.skipped == 2
        assert resumed.to_jsonl() == outcome.to_jsonl()
        # And the store itself now holds all four cells.
        assert len(CampaignStore(interrupted).load()) == 4

    def test_torn_file_resumes_to_the_uninterrupted_bytes(self, finished):
        """Kill a worker mid-append: two whole lines and a fragment of
        the third.  The resumed file must equal the uninterrupted
        run's, byte for byte."""
        outcome, path = finished
        torn = path.parent / "torn.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        torn.write_text("\n".join(lines[:2]) + "\n" + lines[2][:40],
                        encoding="utf-8")
        resumed = run_campaign(micro_campaign(), out=torn, resume=True)
        assert resumed.ran == 2 and resumed.skipped == 2
        assert resumed.to_jsonl() == outcome.to_jsonl()
        assert torn.read_bytes() == path.read_bytes()

    def test_without_resume_completed_work_is_not_clobbered(self, finished):
        """Forgetting --resume must not silently destroy finished
        cells; starting over requires deleting the file explicitly."""
        outcome, path = finished
        with pytest.raises(ConfigError, match="resume"):
            run_campaign(micro_campaign(), out=path, resume=False)
        assert len(CampaignStore(path).load()) == 4  # untouched
        fresh_path = path.parent / "fresh.jsonl"
        fresh = run_campaign(micro_campaign(), out=fresh_path, resume=False)
        assert fresh.ran == 4 and fresh.skipped == 0
        assert fresh.to_jsonl() == outcome.to_jsonl()

    def test_worker_pool_matches_inline_run(self, finished):
        """The multiprocessing path must be a pure speedup: same grid,
        same bytes out."""
        outcome, _path = finished
        pooled = run_campaign(micro_campaign(), workers=2)
        assert pooled.ran == 4
        assert pooled.to_jsonl() == outcome.to_jsonl()

    def test_dead_worker_ends_in_a_resumable_error(self, finished, monkeypatch):
        """A worker that dies mid-cell: one error naming the unfinished
        cells and the file, every finished cell on disk, and a resume
        that runs exactly the rest to the uninterrupted bytes."""
        outcome, path = finished
        out = path.parent / "dead-worker.jsonl"
        names = [spec.name for spec in micro_campaign().cells()]
        with monkeypatch.context() as patched:
            patched.setattr(runner, "_execute_cell", execute_cell_or_die)
            with pytest.raises(CampaignError, match="--resume") as error:
                run_campaign(micro_campaign(), workers=2, out=out)
        message = str(error.value)
        assert str(out) in message and names[3] in message
        on_disk = CampaignStore(out).load()
        assert on_disk  # the fourth cell starts only after one finished
        for cell, name in zip(outcome.cells, names):
            assert (cell.cell_hash in on_disk) != (name in message)
        resumed = run_campaign(micro_campaign(), workers=2, out=out,
                               resume=True)
        assert resumed.ran == 4 - len(on_disk)
        assert resumed.skipped == len(on_disk)
        assert resumed.to_jsonl() == outcome.to_jsonl()
        assert len(CampaignStore(out).load()) == 4

    def test_progress_callback_sees_every_fresh_cell(self):
        seen = []
        run_campaign(micro_campaign(), progress=lambda cell: seen.append(cell.index))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_resume_requires_an_output_path(self):
        with pytest.raises(ConfigError):
            run_campaign(micro_campaign(), resume=True)
        with pytest.raises(ConfigError):
            run_campaign(micro_campaign(), workers=0)

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
