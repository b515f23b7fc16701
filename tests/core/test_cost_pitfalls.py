"""Tests for the storage-cost model and the pitfall checklist."""

from __future__ import annotations

import pytest

from repro.core.cost import CostOption, compare_costs, drives_needed, render_heatmap
from repro.core.pitfalls import (
    PITFALLS,
    EvaluationPlan,
    check_plan,
    render_report,
)
from repro.errors import ConfigError

TB = 10**12


class TestCostOption:
    def test_from_measurement(self):
        option = CostOption.from_measurement(
            "lsm", tput=3000, drive_capacity=400 * 10**9, space_amp=1.46
        )
        assert option.dataset_per_drive == int(400e9 / 1.46)

    def test_reserved_fraction_shrinks_capacity(self):
        base = CostOption.from_measurement("a", 3000, 400 * 10**9, 1.4)
        reserved = CostOption.from_measurement(
            "b", 3000, 400 * 10**9, 1.4, reserved_fraction=0.25
        )
        assert reserved.dataset_per_drive == pytest.approx(
            base.dataset_per_drive * 0.75, rel=0.01
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            CostOption("x", 0, 100)


class TestDrivesNeeded:
    def test_capacity_bound(self):
        option = CostOption("x", per_instance_tput=10_000, dataset_per_drive=TB)
        assert drives_needed(option, 3 * TB, 1000) == 3

    def test_throughput_bound(self):
        option = CostOption("x", per_instance_tput=1000, dataset_per_drive=10 * TB)
        assert drives_needed(option, TB, 5000) == 5

    def test_max_of_both(self):
        option = CostOption("x", per_instance_tput=1000, dataset_per_drive=TB)
        assert drives_needed(option, 2 * TB, 3000) == 3

    def test_validation(self):
        option = CostOption("x", 1000, TB)
        with pytest.raises(ConfigError):
            drives_needed(option, 0, 100)


class TestCompareCosts:
    def make_options(self):
        # The paper's qualitative setup: the LSM is faster per instance,
        # the B+Tree stores more per drive.
        lsm = CostOption("lsm", per_instance_tput=1800, dataset_per_drive=int(TB * 0.27))
        btree = CostOption("btree", per_instance_tput=900, dataset_per_drive=int(TB * 0.35))
        return [lsm, btree]

    def test_btree_wins_capacity_bound_corner(self):
        grid = compare_costs(self.make_options(), [5 * TB], [5000.0])
        assert grid.winner_at(5 * TB, 5000.0) == "btree"

    def test_lsm_wins_throughput_bound_corner(self):
        grid = compare_costs(self.make_options(), [1 * TB], [25_000.0])
        assert grid.winner_at(1 * TB, 25_000.0) == "lsm"

    def test_tie_region_exists(self):
        datasets = [i * TB for i in range(1, 6)]
        targets = [i * 1000.0 for i in range(5, 26, 5)]
        grid = compare_costs(self.make_options(), datasets, targets)
        flattened = {w for row in grid.winners for w in row}
        assert {"lsm", "btree"} <= flattened  # both win somewhere

    def test_needs_two_options(self):
        with pytest.raises(ConfigError):
            compare_costs([CostOption("x", 1, 1)], [TB], [100.0])

    def test_render_heatmap_mentions_options(self):
        datasets = [i * TB for i in range(1, 4)]
        targets = [5000.0, 15000.0]
        grid = compare_costs(self.make_options(), datasets, targets)
        text = render_heatmap(grid, dataset_unit=TB, target_unit=1000.0)
        assert "lsm" in text and "btree" in text
        assert "legend" in text


class TestPitfalls:
    def test_seven_pitfalls_defined(self):
        assert sorted(PITFALLS) == [1, 2, 3, 4, 5, 6, 7]

    def test_naive_plan_hits_all_seven(self):
        violations = check_plan(EvaluationPlan())
        assert sorted(v.pitfall_id for v in violations) == [1, 2, 3, 4, 5, 6, 7]

    def test_compliant_plan_passes(self):
        plan = EvaluationPlan(
            run_until_host_writes_capacity_multiple=3.5,
            uses_steady_state_detection=True,
            reports_wa_d=True,
            controls_drive_state=True,
            reports_drive_state=True,
            dataset_fractions=(0.25, 0.37, 0.5, 0.62),
            reports_space_amplification=True,
            considers_overprovisioning=True,
            ssd_types=("ssd1", "ssd2", "ssd3"),
        )
        assert check_plan(plan) == []

    def test_rule_of_thumb_satisfies_pitfall_one(self):
        plan = EvaluationPlan(run_until_host_writes_capacity_multiple=3.0)
        ids = {v.pitfall_id for v in check_plan(plan)}
        assert 1 not in ids

    def test_steady_state_detection_also_satisfies(self):
        plan = EvaluationPlan(uses_steady_state_detection=True)
        ids = {v.pitfall_id for v in check_plan(plan)}
        assert 1 not in ids

    def test_single_dataset_size_flagged(self):
        plan = EvaluationPlan(dataset_fractions=(0.5,))
        ids = {v.pitfall_id for v in check_plan(plan)}
        assert 4 in ids

    def test_drive_state_must_be_controlled_and_reported(self):
        plan = EvaluationPlan(controls_drive_state=True, reports_drive_state=False)
        ids = {v.pitfall_id for v in check_plan(plan)}
        assert 3 in ids

    def test_report_rendering(self):
        text = render_report(check_plan(EvaluationPlan()))
        assert "Pitfall" in text or "pitfall" in text
        assert "guideline" in text
        assert render_report([]).startswith("No pitfalls")
