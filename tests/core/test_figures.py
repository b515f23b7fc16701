"""The figure sweep and its cell store (DESIGN.md §5.5).

The session's one sweep of the ten figures at SMALL, cold and then
warm on the cell runner's worker pool (``figure_sweep`` in
``tests/conftest.py``; the paper-claims test reads the same figures),
is what these tests read.  The text digests are of SMALL texts
recorded at the parent of the commit that made the sweep a session
fixture; the 36 MiB digests pinned before that were recorded at the
parent of the commit that introduced the cache, which re-simulated
all 72 cells — except Fig 2's, re-recorded
when device MB/s became a delta of the block layer's counters: only
its devW / devR columns moved (the other nine figures print neither),
and what they print now sums to the bytes written and read
(``tests/core/test_conservation.py``).
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import replace

import pytest

from repro.analysis.stats import coefficient_of_variation
from repro.campaign import CampaignStore
from repro.core import figures
from repro.core.experiment import (Engine, ExperimentResult, ExperimentSpec,
                                   run_experiment)
from repro.core.figures import SMALL, Scale, spec_for
from repro.errors import ConfigError
from repro.units import MIB
from tests.conftest import one_cpu

TINY = Scale("tiny", 36 * MIB, 1.5, 0.1)

#: Cells each figure asks for; 72 in all, 40 of them distinct.
REQUESTS = {"fig2": 2, "fig3": 4, "fig4": 2, "fig5": 16, "fig6": 12,
            "fig7": 8, "fig8": 8, "fig9": 6, "fig10": 6, "fig11": 8}

#: sha256 of every figure's text at SMALL, from the parent commit.
PARENT_TEXT_SHA256 = {
    "fig2": "f5507ffb2d8bf0c98dc4e3632c42aa953dc6e774cc46ff72f44eb39ff3d84d96",
    "fig3": "e290304ba605ea509bd0bf7e467a7f747874ea85032e36f6a3bbb22121407c2e",
    "fig4": "09e3f77c84c3d7fe7ddf35c1f1dad44ca60ad7b681a934e5c977e56b78aaaba3",
    "fig5": "65c3522e7d3c41ca0475b6c1b5242cd50e4da877222a3dbc14211d2e6edee96f",
    "fig6": "7611072068c29056741706c18b566ef58996a35c53b8e69c9bbfbf8847dd1fd0",
    "fig7": "00b79ab8f947cd7e5025794ff356b69c86990f524a8abd07538a44ac3fea5250",
    "fig8": "a7af2849ba709a5f2d70f83d48c0264fc820ab5de032c5234e3eb21e484bac90",
    "fig9": "5932312a978137f7c6c428023e9103f61f7cf92f3f04ce3f5a9b1a3771be5942",
    "fig10": "4ef39055a68078b9d0d13b8d1c97cd05e398ba2162a89185425838326513c770",
    "fig11": "c1c812644d6e911606ab374173db0fd77d213484c803127e42181b27495ae87b",
}


def results_in(payload) -> list[ExperimentResult]:
    if isinstance(payload, ExperimentResult):
        return [payload]
    if isinstance(payload, dict):
        return [r for value in payload.values() for r in results_in(value)]
    return []


@pytest.fixture
def sweep(figure_sweep):
    """``[cold, warm]``: per figure, how many cells it requested and
    how many were simulated, and the figure."""
    return figure_sweep.passes


def store_of(records) -> CampaignStore:
    """An in-memory store holding *records*."""
    store = CampaignStore()
    for record in records:
        store.append(record)
    return store


def out_of_space_when(monkeypatch, figure_sweep, ran_out) -> None:
    """Serve SMALL cells from a store of the sweep's records, where
    every record ``ran_out(spec)`` picks reports that it ran out of
    space."""
    monkeypatch.setattr(figures, "STORE", store_of(
        {**record, "out_of_space": True, "steady": None}
        if ran_out(ExperimentSpec.from_dict(record["spec"])) else record
        for record in figure_sweep.cells.values()
    ))


class TestSharing:
    def test_each_distinct_cell_is_simulated_once(self, sweep, figure_sweep):
        cold, warm = sweep
        for record in sweep:
            assert {f: asked for f, (asked, _, _) in record.items()} == REQUESTS
        assert sum(ran for _, ran, _ in cold.values()) == 40
        assert not any(ran for _, ran, _ in warm.values())
        # The 40 cells the store holds are the distinct cells the
        # results carry, and fig4's two (it keeps derived data only).
        carried = {r.spec.stable_hash() for _, _, figure in cold.values()
                   for r in results_in(figure.data)}
        carried |= {spec_for(SMALL, engine, trace_lba=True).stable_hash()
                    for engine in figures.ENGINES}
        assert len(figure_sweep.cells) == 40
        assert carried == set(figure_sweep.cells)
        assert all(record["cell"] == cell for cell, record in figure_sweep.cells.items())

    def test_derived_figures_simulate_nothing(self, sweep):
        cold, _ = sweep
        assert [cold[f][1] for f in ("fig7", "fig8")] == [4, 0]
        assert [cold[f][1] for f in ("fig9", "fig10")] == [6, 0]
        assert cold["fig6"][1] == 4  # 0.75 and 0.88; the rest is fig5's

    def test_results_carry_the_requesting_spec(self, sweep):
        cold, _ = sweep
        for figure_id, (asked, _, figure) in cold.items():
            found = results_in(figure.data)
            if figure_id in ("fig4", "fig8", "fig10"):  # derived data only
                assert not found
                continue
            assert len(found) == asked
            if "campaign" in figure.data:
                assert [r.spec for r in found] == figure.data["campaign"].cells()
        fig3 = cold["fig3"][2].data["results"][("lsm", "trimmed")]
        fig5 = cold["fig5"][2].data["results"][("lsm", "trimmed", 0.5)]
        assert fig3.spec.name == "lsm"
        assert fig5.spec.name == "fig5/engine=lsm,drive_state=trimmed,dataset_fraction=0.5"
        # One cell, one record, two result objects.
        assert fig3.to_dict()["cell"] == fig5.to_dict()["cell"]
        assert fig3 is not fig5 and fig3.samples == fig5.samples

    def test_one_call_rebuilds_each_cell_once(self, figure_sweep, monkeypatch):
        """Two requests for one cell in one call share its rebuilt,
        read-only payload; only the spec is each request's own."""
        monkeypatch.setattr(figures, "STORE", store_of(figure_sweep.cells.values()))
        spec = spec_for(SMALL, Engine.LSM)
        results = figures.run_cells({"a": spec, "b": replace(spec, name="b")})
        assert [r.spec.name for r in results.values()] == ["lsm", "b"]
        assert results["a"].samples is results["b"].samples
        assert results["a"].counters is results["b"].counters

    def test_every_result_is_its_own_object(self, sweep):
        found = [r for record in sweep for _, _, figure in record.values()
                 for r in results_in(figure.data)]
        assert len(found) == 2 * 56
        assert len({id(r) for r in found}) == len(found)

    def test_texts_match_the_parent_cold_and_warm(self, sweep):
        for record in sweep:
            digests = {
                figure_id: hashlib.sha256(figure.text.encode()).hexdigest()
                for figure_id, (_, _, figure) in record.items()
            }
            assert digests == PARENT_TEXT_SHA256

    def test_fig10_rows_keep_the_numbers(self, sweep):
        """The claims compare Fig 10's statistics, not their rounded
        text: each row carries its cell's coefficient of variation of
        ``kv_tput`` as the float itself."""
        cold, _ = sweep
        results = cold["fig9"][2].data["results"]
        rows = cold["fig10"][2].data["rows"]
        assert len(rows) == len(results) == 6
        for engine, ssd, cv, *_ in rows:
            samples = results[(engine, ssd)].samples
            assert type(cv) is float
            assert cv == coefficient_of_variation([s.kv_tput for s in samples])

    def test_pool_and_inline_give_the_same_bytes(self, monkeypatch):
        """fig2 and fig11 cold twice: with the process pinned to one CPU
        (the cells run inline) and on every CPU it may run on (a pool
        wherever that is two or more)."""
        runs = []
        for pin in (one_cpu, contextlib.nullcontext):
            monkeypatch.setattr(figures, "STORE", CampaignStore())
            with pin():
                runs.append({f: figures.FIGURES[f](SMALL) for f in ("fig2", "fig11")})
            assert len(figures.STORE.cells) == 10
        inline, pooled = runs
        for figure_id, figure in inline.items():
            assert figure.text == pooled[figure_id].text
            assert [r.to_dict() for r in results_in(figure.data)] == \
                [r.to_dict() for r in results_in(pooled[figure_id].data)]

    def test_run_experiment_itself_is_not_memoized(self, monkeypatch):
        import repro.core.experiment as experiment

        built = []
        real = experiment.build_stack
        monkeypatch.setattr(experiment, "build_stack",
                            lambda *a, **kw: built.append(1) or real(*a, **kw))
        spec = spec_for(TINY, Engine.BTREE, max_ops=2_000)
        first, second = run_experiment(spec), run_experiment(spec)
        assert len(built) == 2
        assert first is not second and first.samples is not second.samples
        assert first.to_dict() == second.to_dict()


class TestOutOfSpace:
    """A cell that ran out of space is a table row; a derived line or
    heatmap that needs it is one ConfigError naming figure and cell."""

    def test_fig7_reservation_too_large(self, monkeypatch, figure_sweep):
        out_of_space_when(monkeypatch, figure_sweep,
                          lambda spec: spec.op_reserved_fraction > 0)
        with pytest.raises(ConfigError, match=r"fig7: cell 'fig7/engine=lsm,"
                           r"drive_state=preconditioned,op_reserved_fraction=0\.15'"):
            figures.fig7_overprovisioning(SMALL)
        with pytest.raises(ConfigError, match="fig7: cell"):
            figures.fig8_op_cost(SMALL)

    def test_fig9_dataset_too_large(self, monkeypatch, figure_sweep):
        out_of_space_when(monkeypatch, figure_sweep,
                          lambda spec: spec.ssd == "ssd1")
        with pytest.raises(ConfigError, match=r"fig9: cell 'fig9/engine=lsm,ssd=ssd1' "
                           r"\(dataset/cap 0\.1666"):
            figures.fig9_ssd_types(SMALL)
        with pytest.raises(ConfigError, match="fig9: cell"):
            figures.fig10_variability(SMALL)

    def test_fig6_reference_cell_out_of_space(self, monkeypatch, figure_sweep):
        out_of_space_when(monkeypatch, figure_sweep,
                          lambda spec: spec.dataset_fraction == 0.5)
        with pytest.raises(ConfigError, match=r"fig6: cell 'lsm' \("
                           r"dataset/cap 0\.5"):
            figures.fig6_space_amplification(SMALL)

    def test_fig7_renders_a_row_the_speedup_line_does_not_need(
            self, monkeypatch, figure_sweep):
        out_of_space_when(monkeypatch, figure_sweep, lambda spec: (
            spec.engine is Engine.BTREE and spec.op_reserved_fraction > 0))
        text = figures.fig7_overprovisioning(SMALL).text
        assert text.count("OUT OF SPACE") == 2
        assert "LSM preconditioned speedup from extra OP" in text
