"""Unit and property tests for the flash translation layer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, OutOfRangeError
from repro.flash.ftl import FlashTranslationLayer
from repro.flash.gc import FifoPolicy, GreedyPolicy
from tests.conftest import make_tiny_config, mapped, one_page_runs


def make_ftl(**overrides) -> FlashTranslationLayer:
    return FlashTranslationLayer(make_tiny_config(**overrides))


def wa_d(ftl: FlashTranslationLayer) -> float:
    """Lifetime WA-D from the FTL's page totals."""
    return (ftl.total_host_pages + ftl.total_gc_pages) / ftl.total_host_pages


class TestBasicWrites:
    def test_fresh_device_has_no_mappings(self):
        ftl = make_ftl()
        assert not mapped(ftl).any()

    def test_write_maps_pages(self):
        ftl = make_ftl()
        work = ftl.write_runs([10], [5])
        assert work.host_pages == 5
        assert work.gc_pages == 0
        assert np.flatnonzero(mapped(ftl)).tolist() == list(range(10, 15))
        ftl.check_invariants()

    def test_empty_write_is_noop(self):
        ftl = make_ftl()
        work = ftl.write_runs(*one_page_runs(np.array([], dtype=np.int64)))
        assert work.host_pages == 0
        assert not mapped(ftl).any()

    def test_overwrite_does_not_grow_mapping(self):
        ftl = make_ftl()
        ftl.write_runs([0], [8])
        ftl.write_runs([0], [8])
        assert mapped(ftl).sum() == 8
        ftl.check_invariants()

    def test_out_of_range_write_rejected(self):
        ftl = make_ftl()
        with pytest.raises(OutOfRangeError):
            ftl.write_runs([ftl.config.logical_pages - 2], [5])
        with pytest.raises(OutOfRangeError):
            ftl.write_runs(*one_page_runs(np.array([-1], dtype=np.int64)))

    def test_sequential_fill_has_unit_wad(self):
        ftl = make_ftl()
        ftl.write_runs([0], [ftl.config.logical_pages])
        assert wa_d(ftl) == 1.0

    def test_byte_addressable_config_rejected(self):
        with pytest.raises(ConfigError):
            FlashTranslationLayer(make_tiny_config(byte_addressable=True))


class TestGarbageCollection:
    def test_random_churn_triggers_gc(self):
        ftl = make_ftl()
        n = ftl.config.logical_pages
        ftl.write_runs([0], [n])
        rng = np.random.default_rng(7)
        for _ in range(12):
            ftl.write_runs(*one_page_runs(rng.permutation(n)[: n // 4].astype(np.int64)))
        assert ftl.total_erases > 0
        assert ftl.total_gc_pages > 0
        assert wa_d(ftl) > 1.0
        ftl.check_invariants()

    def test_gc_preserves_all_mappings(self):
        ftl = make_ftl()
        n = ftl.config.logical_pages
        ftl.write_runs([0], [n])
        rng = np.random.default_rng(3)
        for _ in range(8):
            ftl.write_runs(*one_page_runs(rng.permutation(n)[: n // 3].astype(np.int64)))
        assert mapped(ftl).all()  # nothing lost to GC
        ftl.check_invariants()

    def test_free_blocks_stay_above_reserve(self):
        ftl = make_ftl()
        n = ftl.config.logical_pages
        rng = np.random.default_rng(11)
        for _ in range(20):
            ftl.write_runs(*one_page_runs(rng.permutation(n)[: n // 2].astype(np.int64)))
            assert ftl.free_blocks >= 1

    def test_greedy_beats_fifo_on_wad(self):
        """The ablation claim: greedy victim selection relocates less."""
        results = {}
        for policy in (GreedyPolicy(), FifoPolicy()):
            ftl = FlashTranslationLayer(make_tiny_config(), policy)
            n = ftl.config.logical_pages
            ftl.write_runs([0], [n])
            rng = np.random.default_rng(5)
            for _ in range(30):
                ftl.write_runs(*one_page_runs(rng.permutation(n)[: n // 2].astype(np.int64)))
            results[policy.name] = wa_d(ftl)
        assert results["greedy"] <= results["fifo"]

    def test_higher_utilization_increases_wad(self):
        """The mechanism behind pitfall 4 (Fig 5b)."""
        wads = []
        for fraction in (0.4, 0.95):
            ftl = make_ftl()
            n = int(ftl.config.logical_pages * fraction)
            ftl.write_runs([0], [n])
            rng = np.random.default_rng(9)
            before = ftl.total_host_pages + ftl.total_gc_pages
            before_host = ftl.total_host_pages
            for _ in range(25):
                ftl.write_runs(*one_page_runs(rng.permutation(n)[: n // 2].astype(np.int64)))
            programmed = ftl.total_host_pages + ftl.total_gc_pages - before
            host = ftl.total_host_pages - before_host
            wads.append(programmed / host)
        assert wads[1] > wads[0] * 1.2


class TestTrim:
    def test_trim_unmaps(self):
        ftl = make_ftl()
        ftl.write_runs([0], [100])
        count = ftl.trim_range(0, 50)
        assert count == 50
        assert np.flatnonzero(mapped(ftl)).tolist() == list(range(50, 100))
        ftl.check_invariants()

    def test_trim_unmapped_counts_zero(self):
        ftl = make_ftl()
        assert ftl.trim_range(0, 100) == 0

    def test_trim_out_of_range_rejected(self):
        ftl = make_ftl()
        with pytest.raises(OutOfRangeError):
            ftl.trim_range(0, ftl.config.logical_pages + 1)

    def test_full_trim_restores_low_wad(self):
        """A trimmed drive behaves like a mint one (§3.4)."""
        ftl = make_ftl()
        n = ftl.config.logical_pages
        rng = np.random.default_rng(2)
        ftl.write_runs([0], [n])
        for _ in range(10):
            ftl.write_runs(*one_page_runs(rng.permutation(n)[: n // 2].astype(np.int64)))
        ftl.trim_range(0, n)
        host0, gc0 = ftl.total_host_pages, ftl.total_gc_pages
        ftl.write_runs([0], [n // 2])
        relocated = ftl.total_gc_pages - gc0
        # Nothing valid remains, so GC (if any) relocates nothing.
        assert relocated == 0
        ftl.check_invariants()


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("write"), st.integers(0, 900), st.integers(1, 64)),
                st.tuples(st.just("trim"), st.integers(0, 900), st.integers(1, 64)),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_ftl_matches_reference_model(self, ops):
        """The FTL's mapped set must always equal a trivial dict model."""
        ftl = make_ftl()
        logical = ftl.config.logical_pages
        model: set[int] = set()
        for kind, start, count in ops:
            end = min(start + count, logical)
            if end <= start:
                continue
            if kind == "write":
                ftl.write_runs([start], [end - start])
                model.update(range(start, end))
            else:
                ftl.trim_range(start, end - start)
                model.difference_update(range(start, end))
        assert np.flatnonzero(mapped(ftl)).tolist() == sorted(model)
        ftl.check_invariants()

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_wad_at_least_one_under_churn(self, seed):
        ftl = make_ftl()
        n = ftl.config.logical_pages
        rng = np.random.default_rng(seed)
        for _ in range(6):
            ftl.write_runs(*one_page_runs(rng.permutation(n)[: n // 3].astype(np.int64)))
        assert wa_d(ftl) >= 1.0
        ftl.check_invariants()
