"""The paper's qualitative claims, asserted from the one claim table.

``benchmarks/ledger/claims.py`` is the table: one predicate per claim
over a figure's data.  The ledger counts how many hold; this module
runs the ten ``FIGURES`` at ``SCALES["small"]`` once and asserts every
verdict, so a claim that flips either way fails here.  The classes
below group the claims by the paper's pitfall and add the checks the
table does not carry, over the same figure data.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.figures import FIGURES, SCALES

_PATH = Path(__file__).parents[2] / "benchmarks" / "ledger" / "claims.py"
_SPEC = importlib.util.spec_from_file_location("ledger_claims", _PATH)
claims = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(claims)

#: The one claim that does not hold at SMALL.  It holds at DEFAULT,
#: whose reservation is 25 % rather than 15 %, so scale and
#: reservation are not yet told apart.
NOT_HELD_AT_SMALL = {"fig7.lsm-trimmed-op-faster"}


@pytest.fixture(scope="module")
def data():
    return {figure: build(SCALES["small"]).data for figure, build in FIGURES.items()}


@pytest.fixture(scope="module")
def verdicts(data):
    return claims.evaluate(data)


def failing(verdicts, *claim_ids):
    """The claims among ``claim_ids`` that do not hold."""
    return {claim_id for claim_id in claim_ids if not verdicts[claim_id]}


def test_every_claim_verdict_at_small(verdicts):
    assert len(verdicts) == len(claims.CLAIMS) == 60
    assert verdicts == {claim_id: claim_id not in NOT_HELD_AT_SMALL
                        for claim_id, _, _ in claims.CLAIMS}


class TestPitfall1SteadyState:
    def test_lsm_early_measurements_overestimate(self, verdicts):
        """Fig 2a: early throughput is a multiple of steady throughput."""
        assert not failing(verdicts, "fig2.lsm-early-burst-overestimates")

    def test_btree_wa_a_is_flat(self, verdicts):
        """Fig 2d: the B+Tree's WA-A does not trend."""
        assert not failing(verdicts, "fig2.btree-wa-a-flat")

    def test_btree_less_device_sensitive(self, data):
        """Fig 2b: the B+Tree's first window is near its steady rate."""
        btree = data["fig2"]["results"]["btree"]
        assert btree.samples[0].kv_tput < 1.4 * btree.steady.kv_tput

    def test_lsm_wa_curves_rise_then_flatten(self, data):
        """Fig 2c: GC ramps up on a trimmed drive, so the LSM's first
        window's WA-D sits well below its last."""
        samples = data["fig2"]["results"]["lsm"].samples
        assert samples[0].wa_d < 0.9 * samples[-1].wa_d


class TestPitfall2WaD:
    def test_end_to_end_wa_needs_wad(self, data):
        """§4.2.ii: end-to-end WA = WA-A x WA-D differs from WA-A."""
        for result in data["fig2"]["results"].values():
            assert result.steady.wa_a * result.steady.wa_d > result.steady.wa_a

    def test_wad_capsizes_flash_friendliness_wisdom(self, data):
        """§4.2.iii: the 'random-write' B+Tree gets the LOWER WA-D on a
        trimmed drive, against conventional wisdom."""
        results = data["fig2"]["results"]
        assert results["btree"].steady.wa_d < results["lsm"].steady.wa_d


class TestPitfall3DriveState:
    def test_btree_state_gap(self, data):
        """Fig 3: the table holds the B+Tree's throughput and WA-D gap;
        WA-A is state-independent, so the gap is purely device-level."""
        results = data["fig3"]["results"]
        assert results[("btree", "trimmed")].steady.wa_a == pytest.approx(
            results[("btree", "preconditioned")].steady.wa_a, rel=0.1)

    def test_lsm_converges_across_states(self, data):
        """Fig 3c: the LSM's steady WA-D is (nearly) state-independent."""
        results = data["fig3"]["results"]
        trimmed = results[("lsm", "trimmed")].steady.wa_d
        preconditioned = results[("lsm", "preconditioned")].steady.wa_d
        assert abs(trimmed - preconditioned) / preconditioned < 0.3

    def test_lba_footprints(self, verdicts):
        """Fig 4: the LSM covers the LBA space; the B+Tree leaves a tail."""
        assert not failing(verdicts, "fig4.lsm-covers-lba-space",
                           "fig4.btree-never-writes-a-tail")


class TestPitfall4DatasetSize:
    def test_wad_grows_with_utilization(self, verdicts):
        """Fig 5b: larger datasets raise WA-D and do not speed either
        engine up (trimmed)."""
        assert not failing(verdicts, *(f"fig5.{engine}-larger-dataset-{what}"
                                       for engine in ("lsm", "btree")
                                       for what in ("more-wa-d", "not-faster")))

    def test_lsm_runs_out_of_space_on_big_datasets(self, verdicts):
        """§4.4: RocksDB cannot handle the largest datasets."""
        assert not failing(verdicts, "fig6.lsm-out-of-space-at-0.88")


class TestPitfall5SpaceAmplification:
    def test_lsm_needs_more_space(self, verdicts):
        """Fig 6b: LSM space amplification exceeds the B+Tree's, which
        stays bounded."""
        assert not failing(verdicts, *(f"fig6.{claim}-{fraction}"
                                       for fraction in (0.25, 0.5)
                                       for claim in ("lsm-space-amp-above-btree",
                                                     "btree-space-amp-bounded")))


class TestPitfall6Overprovisioning:
    def test_extra_op_helps_the_lsm(self, verdicts):
        """Fig 7: a reserved trimmed partition cuts the LSM's WA-D and
        raises throughput, on a preconditioned device."""
        assert not failing(verdicts, "fig7.lsm-preconditioned-op-faster",
                           "fig7.lsm-preconditioned-op-cuts-wa-d")


class TestPitfall7StorageTechnology:
    def test_ranking_flips_on_consumer_drive(self, verdicts):
        """Fig 9: the LSM wins on SSD1 but loses on the QLC drive."""
        assert not failing(verdicts, "fig9.lsm-wins-on-ssd1", "fig9.btree-wins-on-ssd2")

    def test_lsm_swings_more_across_devices(self, verdicts):
        """§4.7: the LSM's best/worst spread dwarfs the B+Tree's."""
        assert not failing(verdicts, "fig9.lsm-spread-exceeds-btree")

    def test_optane_has_no_write_amplification(self, data):
        """SSD3 is byte-addressable: WA-D is identically 1."""
        results = data["fig9"]["results"]
        for engine in ("lsm", "btree"):
            assert results[(engine, "ssd3")].steady.wa_d == pytest.approx(1.0)
