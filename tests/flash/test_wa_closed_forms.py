"""The simulated FTL against the closed-form WA-D models.

An independent correctness signal beyond fingerprints: under uniform
random overwrite of everything the host can address, the steady-state
WA-D the simulator measures must

* grow monotonically with raw utilization,
* for greedy cleaning, stay below the FIFO model and within the
  0.55-1.05x band of the small-spare greedy estimate that exact greedy
  analyses predict (:func:`repro.analysis.wa_model.wa_for_config`),
* for FIFO cleaning, stay above the greedy simulation and just under
  the FIFO fixed point (blocks are not infinitely large), and
* fall, by what the greedy estimate says, when the block layer keeps a
  quarter of the LBAs from the host (software over-provisioning, §4.6).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.wa_model import wa_fifo_uniform, wa_for_config
from repro.block.device import BlockDevice
from repro.core.clock import VirtualClock
from repro.flash.config import SSDConfig
from repro.flash.gc import make_policy
from repro.flash.ssd import SSD

HW_OP = (0.08, 0.15, 0.25, 0.5)


def steady_wa(hw_overprovision: float, policy: str = "greedy",
              reserved_fraction: float = 0.0) -> float:
    """Steady-state WA-D under uniform overwrite of the exposed range."""
    config = SSDConfig(name="validation", pages_per_block=256,
                       nblocks=int(round(128 * (1 + hw_overprovision))),
                       hw_overprovision=hw_overprovision)
    ssd = SSD(config, VirtualClock(), make_policy(policy))
    device = BlockDevice(ssd, reserved_fraction)
    n = device.npages
    device.write_range(0, n, background=True)
    rng = np.random.default_rng(0)

    def churn(passes: int) -> None:
        for _ in range(passes):
            order = rng.permutation(n)
            for start in range(0, n, 256):
                device.write_pages(order[start:start + 256], background=True)

    churn(6)  # warm up to steady state
    baseline = ssd.smart.snapshot()
    churn(3)
    delta = ssd.smart.delta(baseline)
    return delta.nand_bytes_written / delta.host_bytes_written


@pytest.fixture(scope="module")
def greedy() -> dict[float, float]:
    return {op: steady_wa(op) for op in HW_OP}


def test_greedy_tracks_the_small_spare_estimate(greedy):
    values = [greedy[op] for op in HW_OP]
    assert values == sorted(values, reverse=True), "WA must grow with utilization"
    for op in HW_OP:
        assert 1.0 <= greedy[op] < wa_fifo_uniform(1.0 / (1.0 + op))
        assert 0.55 <= greedy[op] / wa_for_config(1.0, op) <= 1.05, op


def test_fifo_sits_between_greedy_and_its_fixed_point(greedy):
    fifo = {op: steady_wa(op, policy="fifo") for op in HW_OP}
    values = [fifo[op] for op in HW_OP]
    assert values == sorted(values, reverse=True)
    for op in HW_OP:
        assert fifo[op] > greedy[op]
        assert 0.8 <= fifo[op] / wa_fifo_uniform(1.0 / (1.0 + op)) <= 1.0, op


@pytest.mark.parametrize("op", [0.08, 0.25])
def test_a_reserved_range_is_spare_capacity(op, greedy):
    """Churn only ``BlockDevice(ssd, 0.25)``'s exposed range: the drive
    behaves like one three quarters full."""
    reserved = steady_wa(op, reserved_fraction=0.25)
    assert 0.0 <= reserved - 1.0 < 0.5 * (greedy[op] - 1.0)
    assert 0.55 <= reserved / wa_for_config(0.75, op) <= 1.05
