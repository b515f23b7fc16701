"""Tests for drive-state control (trimmed vs preconditioned, §3.4)."""

from __future__ import annotations

import numpy as np

from repro.flash.ssd import SSD
from repro.flash.state import (
    DriveState,
    apply_drive_state,
    precondition_device,
    trim_device,
)
from tests.conftest import (counters_since, make_tiny_config, mapped,
                            one_page_runs)


class TestTrim:
    def test_trim_empties_device(self, tiny_ssd):
        tiny_ssd.write_runs([0], [200])
        trim_device(tiny_ssd)
        assert not mapped(tiny_ssd).any()
        assert tiny_ssd.backlog_seconds() == 0.0


class TestPrecondition:
    def test_fills_whole_logical_space(self, tiny_ssd):
        precondition_device(tiny_ssd)
        assert mapped(tiny_ssd).all()

    def test_triggers_gc(self, tiny_ssd):
        precondition_device(tiny_ssd)
        assert tiny_ssd.smart.blocks_erased > 0
        assert tiny_ssd.device_write_amplification() > 1.0
        tiny_ssd.ftl.check_invariants()

    def test_deterministic_given_seed(self, clock):
        results = []
        for _ in range(2):
            ssd = SSD(make_tiny_config(), clock)
            precondition_device(ssd, seed=42)
            results.append(ssd.smart.nand_bytes_written)
        assert results[0] == results[1]

    def test_leaves_device_settled(self, tiny_ssd):
        precondition_device(tiny_ssd)
        assert tiny_ssd.backlog_seconds() == 0.0


class TestInitialStateEffect:
    """The core of pitfall 3: first writes on a preconditioned drive are
    effectively overwrites, so WA-D starts above 1."""

    def test_first_writes_cheap_on_trimmed(self, clock):
        ssd = SSD(make_tiny_config(), clock)
        apply_drive_state(ssd, DriveState.TRIMMED)
        before = ssd.smart.as_dict()
        ssd.write_runs([0], [ssd.npages // 2])
        delta = counters_since(ssd.smart, before)
        assert delta.nand_bytes_written == delta.host_bytes_written

    def test_first_writes_costly_on_preconditioned(self, clock):
        ssd = SSD(make_tiny_config(), clock)
        apply_drive_state(ssd, DriveState.PRECONDITIONED)
        before = ssd.smart.as_dict()
        rng = np.random.default_rng(1)
        n = ssd.npages
        for _ in range(6):
            ssd.write_runs(*one_page_runs(rng.permutation(n)[: n // 2].astype(np.int64)))
        delta = counters_since(ssd.smart, before)
        assert delta.nand_bytes_written > 1.2 * delta.host_bytes_written
