"""The figure sweep and its cell cache (DESIGN.md §5.5).

One sweep of the ten figures at a 36 MiB scale (the shape of SMALL: a
15 % reservation, a Fig 9 dataset fraction that is none of Fig 5's)
is run cold and then warm by a module fixture; the tests read what it
recorded.  The text digests were recorded at the parent of the commit
that introduced the cache, which re-simulated all 72 cells — except
Fig 2's, re-recorded when device MB/s became a delta of the block
layer's counters: only its devW / devR columns moved (the other nine
figures print neither), and what they print now sums to the bytes
written and read (``tests/core/test_conservation.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import pytest

from repro.core import figures
from repro.core.experiment import Engine, ExperimentResult, run_experiment
from repro.core.figures import FIGURES, SMALL, Scale, spec_for
from repro.errors import ConfigError
from repro.units import MIB

TINY = Scale("tiny", 36 * MIB, 1.5, 0.1)

#: Cells each figure asks for; 72 in all, 40 of them distinct.
REQUESTS = {"fig2": 2, "fig3": 4, "fig4": 2, "fig5": 16, "fig6": 12,
            "fig7": 8, "fig8": 8, "fig9": 6, "fig10": 6, "fig11": 8}

#: sha256 of every figure's text at TINY, from the parent commit.
PARENT_TEXT_SHA256 = {
    "fig2": "adc315078249a450b5aef922a87770747f18f564d00413a83548bbb5e389ab1c",
    "fig3": "afb998415f599c4581595f3aead4558bed460fbd8613de84985eb1cc662bdea8",
    "fig4": "1675c6c61765f133a63bbcc4c8afe40d607831f656feeb247c46b34d9b2b4636",
    "fig5": "5ea7346cfc67a32aaef25676c84dc1ef026149ad48ecefbcc400d600533efb2c",
    "fig6": "51a3e7d5dcf0fef93cc8a97fa4a39699ff16188b36efe48fda4aa739870c9c29",
    "fig7": "74e19b3ea226b6fb561d82f2d2acff0e048ea0e88e8af181f2f3f4a8b973156a",
    "fig8": "682c9a8d43b270dba5c3b23c02c37746c16920e965942a7b994651afe6f4c845",
    "fig9": "68369ca8240b5307024c1b2e73a8e493472ee5594f23ebc680ebd6c2596dae11",
    "fig10": "86d73bfd7150b429c6c345c66ea4cf58ea3d85fa82cf6501ac2be8ae864f9073",
    "fig11": "b9f7e52cdd77499fa5303abc614ff0e2797107427df434869ff09ac804d6b7d1",
}


@pytest.fixture(autouse=True)
def empty_cache():
    figures.clear_cells()
    yield
    figures.clear_cells()


def spy_on(monkeypatch, name: str) -> list:
    """Record the spec of every call to ``figures.<name>``."""
    real, specs = getattr(figures, name), []

    def spy(spec):
        specs.append(spec)
        return real(spec)

    monkeypatch.setattr(figures, name, spy)
    return specs


def results_in(payload) -> list[ExperimentResult]:
    if isinstance(payload, ExperimentResult):
        return [payload]
    if isinstance(payload, dict):
        return [r for value in payload.values() for r in results_in(value)]
    return []


@pytest.fixture(scope="module")
def sweep():
    """The ten figures cold, then warm: per figure and pass, the cells
    requested, the cells simulated, and the figure."""
    figures.clear_cells()
    with pytest.MonkeyPatch.context() as patch:
        requested = spy_on(patch, "run_cell")
        simulated = spy_on(patch, "run_experiment")
        passes = []
        for _ in ("cold", "warm"):
            record = {}
            for figure_id, function in FIGURES.items():
                asked, ran = len(requested), len(simulated)
                figure = function(TINY)
                record[figure_id] = (requested[asked:], simulated[ran:], figure)
            passes.append(record)
    return passes


def cell_key(spec) -> str:
    fields = spec.to_dict()
    del fields["name"]
    return json.dumps(fields, sort_keys=True)


class TestSharing:
    def test_each_distinct_cell_is_simulated_once(self, sweep):
        cold, warm = sweep
        assert {f: len(asked) for f, (asked, _, _) in cold.items()} == REQUESTS
        requested = [spec for asked, _, _ in cold.values() for spec in asked]
        simulated = [spec for _, ran, _ in cold.values() for spec in ran]
        distinct = {cell_key(spec) for spec in requested}
        assert (len(requested), len(distinct)) == (72, 40)
        assert len(simulated) == 40
        assert {cell_key(spec) for spec in simulated} == distinct
        assert not any(ran for _, ran, _ in warm.values())

    def test_derived_figures_simulate_nothing(self, sweep):
        cold, _ = sweep
        assert [len(cold[f][1]) for f in ("fig7", "fig8")] == [4, 0]
        assert [len(cold[f][1]) for f in ("fig9", "fig10")] == [6, 0]
        assert len(cold["fig6"][1]) == 4  # 0.75 and 0.88; the rest is fig5's

    def test_results_carry_the_requesting_spec(self, sweep):
        cold, _ = sweep
        for figure_id, (asked, _, figure) in cold.items():
            found = results_in(figure.data)
            if figure_id in ("fig4", "fig8", "fig10"):  # derived data only
                assert not found
                continue
            assert len(found) == len(asked)
            assert {id(r.spec) for r in found} == {id(spec) for spec in asked}
        fig3 = cold["fig3"][2].data["results"][("lsm", "trimmed")]
        fig5 = cold["fig5"][2].data["results"][("lsm", "trimmed", 0.5)]
        assert fig3.spec.name == "lsm"
        assert fig5.spec.name == "fig5/engine=lsm,drive_state=trimmed,dataset_fraction=0.5"
        assert fig3.to_dict()["cell"] != fig5.to_dict()["cell"]
        # One simulation, two result objects, shared (read-only) payload.
        assert fig3 is not fig5
        assert fig3.samples is fig5.samples and fig3.counters is fig5.counters

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

    def test_fig7_reservation_too_large(self):
        with pytest.raises(ConfigError, match=r"fig7: cell 'fig7/engine=lsm,"
                           r"drive_state=preconditioned,op_reserved_fraction=0\.4'"):
            figures.fig7_overprovisioning(SMALL, reserved_fraction=0.4)
        with pytest.raises(ConfigError, match="fig7: cell"):
            figures.fig8_op_cost(SMALL, reserved_fraction=0.4)

    def test_fig9_dataset_too_large(self):
        with pytest.raises(ConfigError, match=r"fig9: cell 'fig9/engine=lsm,ssd=ssd1' "
                           r"\(dataset/cap 0\.9"):
            figures.fig9_ssd_types(SMALL, dataset_fraction=0.9)
        with pytest.raises(ConfigError, match="fig9: cell"):
            figures.fig10_variability(SMALL, dataset_fraction=0.9)

    def test_fig6_reference_cell_out_of_space(self):
        with pytest.raises(ConfigError, match=r"fig6: cell 'lsm' \("
                           r"dataset/cap 0\.88"):
            figures.fig6_space_amplification(SMALL, fractions=(0.8, 0.88))

    def test_fig7_renders_a_row_the_speedup_line_does_not_need(self, monkeypatch):
        real = figures.run_experiment

        def btree_extra_op_runs_out(spec):
            result = real(spec)
            if spec.engine is Engine.BTREE and spec.op_reserved_fraction:
                result = replace(result, out_of_space=True, steady=None)
            return result

        monkeypatch.setattr(figures, "run_experiment", btree_extra_op_runs_out)
        text = figures.fig7_overprovisioning(TINY).text
        assert text.count("OUT OF SPACE") == 2
        assert "LSM preconditioned speedup from extra OP" in text
