"""Ablations of the paper's default setup, on the LSM at ``SCALES["small"]``.

The allocator (scatter) and the mount (``nodiscard``) are fixed; the
first test pins what scatter does to the LSM's device.  Each other
test changes one engine setting of the trimmed-SSD1 experiment and
asserts the direction the design depends on: bloom filters carry the
read path, and a larger level multiplier costs write amplification.
The stack builds ``LSMConfig()``; a test patches that constructor in
:mod:`repro.core.stack`.  Every run takes well under a second.
"""

from __future__ import annotations

from functools import partial

from repro.core import stack
from repro.core.experiment import Engine, run_experiment
from repro.core.figures import SCALES, spec_for
from repro.core.steady_state import steady_start_index, three_times_capacity_rule
from repro.lsm.config import LSMConfig


def lsm(**overrides):
    return run_experiment(spec_for(SCALES["small"], Engine.LSM, **overrides))


def test_scatter_allocation_drives_wa_d_and_covers_the_lba_space():
    """Scatter reuses freed space anywhere, so SSTable churn is a
    random overwrite: WA-D well above the ~1 of a cyclic sequential
    overwrite, and almost no LBA left unwritten."""
    scatter = lsm(trace_lba=True)
    assert scatter.steady.wa_d > 1.3
    assert scatter.lba_never_written < 0.1


def lsm_with(monkeypatch, config: dict, **overrides):
    """:func:`lsm` on engines built as ``LSMConfig(**config)``."""
    with monkeypatch.context() as patch:
        patch.setattr(stack, "LSMConfig", partial(LSMConfig, **config))
        return lsm(**overrides)


def test_bloom_filters_raise_mixed_throughput(monkeypatch):
    """Without filters every in-range table probe pays a data read."""
    with_filters, without = (
        lsm_with(monkeypatch, {"bloom_bits_per_key": bits},
                 read_fraction=0.5).steady
        for bits in (10, 0))
    assert with_filters.kv_tput > without.kv_tput


def test_larger_level_multiplier_costs_wa_a(monkeypatch):
    """The RUM trade-off (§5): each compaction rewrites more of the
    next level."""
    narrow, wide = (
        lsm_with(monkeypatch, {"level_size_multiplier": m}).steady
        for m in (2, 8))
    assert wide.wa_a > narrow.wa_a


def test_a_run_past_three_capacities_has_a_steady_suffix():
    """§4.1: the 3x-capacity rule of thumb and CUSUM detection agree
    that a long enough run reaches steady state."""
    result = lsm(duration_capacity_writes=4.0, sample_interval=0.02)
    capacity = result.spec.capacity_bytes
    assert any(three_times_capacity_rule(s.host_bytes_cum, capacity)
               for s in result.samples)
    assert steady_start_index(result.samples) is not None
