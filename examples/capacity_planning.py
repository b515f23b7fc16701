#!/usr/bin/env python3
"""Pitfalls 5 and 6: space amplification and over-provisioning as money.

Measures steady-state throughput and space amplification for both
engines, then reproduces the paper's capacity-planning exercise
(Figs 6c and 8): which system — and which over-provisioning setting —
needs fewer 400 GB drives for a given dataset and target throughput?
Measured ratios are scale-free, so the heatmaps are presented at the
paper's drive size.

Run:  python examples/capacity_planning.py
"""

from repro.core import CostOption, Engine, ExperimentSpec, compare_costs, render_heatmap
from repro.core.experiment import run_experiment
from repro.units import MIB

TB = 10**12
PAPER_DRIVE = 400 * 10**9
PE_CYCLES = 3000
SECONDS_PER_DAY = 86_400


def measure(engine, op_reserved=0.0):
    spec = ExperimentSpec(
        engine=engine,
        capacity_bytes=96 * MIB,
        dataset_fraction=0.5,
        duration_capacity_writes=3.0,
        op_reserved_fraction=op_reserved,
    )
    result = run_experiment(spec)
    return result.steady.kv_tput, result.peak_space_amp


def main():
    print("measuring steady-state throughput and space amplification...")
    lsm_tput, lsm_amp = measure(Engine.LSM)
    btree_tput, btree_amp = measure(Engine.BTREE)
    print(f"  lsm:   {lsm_tput:7,.0f} ops/s  space amp {lsm_amp:.2f}")
    print(f"  btree: {btree_tput:7,.0f} ops/s  space amp {btree_amp:.2f}\n")

    options = [
        CostOption.from_measurement("lsm", lsm_tput, PAPER_DRIVE, lsm_amp),
        CostOption.from_measurement("btree", btree_tput, PAPER_DRIVE, btree_amp),
    ]
    datasets = [i * TB for i in range(1, 6)]
    targets = [i * 1000.0 for i in range(5, 26, 5)]
    grid = compare_costs(options, datasets, targets)
    print("Fig 6c analogue — cheapest system per (dataset TB, target KOps):")
    print(render_heatmap(grid, dataset_unit=TB, target_unit=1000.0))
    print("  -> the slower B+Tree wins the capacity-bound corner because it")
    print("     stores more data per drive (pitfall 5).\n")

    print("measuring the LSM engine with a 20% over-provisioning partition...")
    op_tput, op_amp = measure(Engine.LSM, op_reserved=0.2)
    print(f"  extra-OP lsm: {op_tput:7,.0f} ops/s  space amp {op_amp:.2f}")
    options = [
        CostOption.from_measurement("no-OP", lsm_tput, PAPER_DRIVE, lsm_amp),
        CostOption.from_measurement("extra-OP", op_tput, PAPER_DRIVE, op_amp,
                                    reserved_fraction=0.2),
    ]
    grid = compare_costs(options, datasets, targets)
    print("\nFig 8 analogue — cheapest LSM configuration:")
    print(render_heatmap(grid, dataset_unit=TB, target_unit=1000.0))
    print("  -> extra OP buys throughput (fewer drives when throughput-bound)")
    print("     but costs capacity (more drives when capacity-bound): pitfall 6.")

    # §4.2.ii: end-to-end WA (WA-A x WA-D) determines drive lifetime.
    # The flash absorbs capacity x P/E cycles bytes (3k: enterprise
    # MLC/TLC); the host writes user bytes x WA-A, the flash WA-D times
    # that.
    for name, tput, wa_a, wa_d in (
        ("lsm", lsm_tput, 9.8, 2.2),
        ("btree", btree_tput, 10.3, 1.35),
    ):
        host_bytes_per_day = tput * 4016 * wa_a * SECONDS_PER_DAY
        lifetime_days = PAPER_DRIVE * PE_CYCLES / (host_bytes_per_day * wa_d)
        print(f"\n{name}: end-to-end WA={wa_a * wa_d:.1f} -> device lifetime "
              f"~{lifetime_days / 365:.1f} years at "
              f"{host_bytes_per_day / PAPER_DRIVE:.2f} host DWPD")
    print("  -> ignoring WA-D (pitfall 2) misestimates SSD lifetime by the")
    print("     WA-D factor itself.")


if __name__ == "__main__":
    main()
