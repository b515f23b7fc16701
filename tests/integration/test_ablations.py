"""Ablations of the paper's default setup, on the LSM at ``SCALES["small"]``.

Each test flips one knob of the trimmed-SSD1 experiment and asserts the
direction the design depends on: the scatter allocator (aged ext4) is
what makes the LSM's WA-D utilization-dependent, ``nodiscard`` keeps
dead SSTables valid on the device, bloom filters carry the read path,
and a larger level multiplier costs write amplification.  Every run
takes well under a second.
"""

from __future__ import annotations

from repro.core.experiment import Engine, run_experiment
from repro.core.figures import SCALES, spec_for
from repro.core.steady_state import steady_start_index, three_times_capacity_rule


def lsm(**overrides):
    return run_experiment(spec_for(SCALES["small"], Engine.LSM, **overrides))


def test_scatter_allocation_drives_wa_d_and_covers_the_lba_space():
    """Next-fit's rotor turns SSTable churn into a cyclic sequential
    overwrite with WA-D near 1; scatter reuses freed space anywhere."""
    scatter = lsm(fs_strategy="scatter", trace_lba=True)
    next_fit = lsm(fs_strategy="next-fit", trace_lba=True)
    assert scatter.steady.wa_d > next_fit.steady.wa_d + 0.3
    assert scatter.lba_never_written < 0.1


def test_discard_lowers_lsm_wa_d():
    """The paper mounts with nodiscard (§3.5); TRIM on delete hands
    dead SSTables back to the collector for free."""
    nodiscard = lsm(fs_discard=False).steady
    discard = lsm(fs_discard=True).steady
    assert discard.wa_d < nodiscard.wa_d
    assert discard.kv_tput >= 0.95 * nodiscard.kv_tput


def test_bloom_filters_raise_mixed_throughput():
    """Without filters every in-range table probe pays a data read."""
    with_filters, without = (
        lsm(read_fraction=0.5, engine_options={"bloom_bits_per_key": bits}).steady
        for bits in (10, 0))
    assert with_filters.kv_tput > without.kv_tput


def test_larger_level_multiplier_costs_wa_a():
    """The RUM trade-off (§5): each compaction rewrites more of the
    next level."""
    narrow, wide = (
        lsm(engine_options={"level_size_multiplier": m}).steady for m in (2, 8))
    assert wide.wa_a > narrow.wa_a


def test_a_run_past_three_capacities_has_a_steady_suffix():
    """§4.1: the 3x-capacity rule of thumb and CUSUM detection agree
    that a long enough run reaches steady state."""
    result = lsm(duration_capacity_writes=4.0, sample_interval=0.02)
    capacity = result.spec.capacity_bytes
    assert any(three_times_capacity_rule(s.host_bytes_cum, capacity)
               for s in result.samples)
    assert steady_start_index(result.samples) is not None
