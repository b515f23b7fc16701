"""Golden fingerprints of whole experiments (DESIGN.md §12.2).

Each spec's full simulated outcome — every sample, SMART counter,
latency percentile and per-client op count, and the virtual-clock
lengths of the load and measured phases; all of ``ExperimentResult.
to_dict()``, which holds no host wall-clock field — is serialised
(``json.dumps(..., sort_keys=True, default=repr)``) and its SHA-256
compared with a literal.  The literals were recorded at the last
commit that still had the scalar (one-op-at-a-time) drivers, where
``batched=True`` and ``batched=False`` both produced every one of
them (the two ``pool16`` ones later, see ``POOL16``); they are what
pins the drivers, the extent stream, FTL mappings, merge orders and
read charges end to end.

A mismatch means simulated behaviour changed.  If that is *intended*
(and justified by an independent reference, per the ROADMAP standing
rule), regenerate with::

    PYTHONPATH=src python tests/core/test_golden_fingerprints.py

and paste the printed dict over ``GOLDEN``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.experiment import Engine, ExperimentSpec, run_experiment
from repro.flash.state import DriveState
from repro.units import MIB

FAST = dict(
    capacity_bytes=24 * MIB,
    duration_capacity_writes=1.0,
    sample_interval=0.05,
    max_ops=12_000,
)

SCAN_MIX = dict(read_fraction=0.25, scan_fraction=0.25)

#: The 32 MiB pipeline run: stops on the host-write target, not max_ops.
PIPELINE = dict(capacity_bytes=32 * MIB, sample_interval=0.2)
READ_DELETE = dict(duration_capacity_writes=1.2, read_fraction=0.2,
                   delete_fraction=0.05)

#: A short pooled run over every op kind (deletes and scans included).
POOL_MIXED = dict(
    capacity_bytes=24 * MIB,
    dataset_fraction=0.3,
    duration_capacity_writes=50.0,
    sample_interval=0.05,
    max_ops=2500,
    driver="pool",
    read_fraction=0.25,
    scan_fraction=0.1,
    delete_fraction=0.05,
    scan_length=20,
)

#: Four clients on a device the dataset nearly fills: the LSM runs out
#: of space in the measured phase, the B+Tree already while loading.
OUT_OF_SPACE = dict(
    capacity_bytes=24 * MIB,
    dataset_fraction=0.85,
    duration_capacity_writes=60.0,
    sample_interval=0.05,
    nclients=4,
)

#: Fig 2 at the small figure scale with sixteen clients: the deep
#: interleave, stopping on the host-write target.  Recorded at the
#: last commit that had the wall-clock perf baseline file, whose
#: ``sim`` blocks for these two cells (4 992 and 3 136 measured ops)
#: the runs matched.
POOL16 = dict(capacity_bytes=48 * MIB, duration_capacity_writes=2.5,
              sample_interval=0.2, nclients=16)

#: Software over-provisioning (§4.6): the filesystem sees 75 % of the
#: drive, the reserved tail stays trimmed.
OP25 = dict(op_reserved_fraction=0.25, dataset_fraction=0.4)

#: Transient device faults absorbed by the block layer's retry budget.
FAULTS = dict(
    faults={"read": 0.05, "program": 0.02, "latency": 0.05,
            "read_penalty_ms": 2.0},
    read_fraction=0.25,
)

SPECS = {
    "closed-loop-lsm": dict(engine=Engine.LSM, **FAST),
    "closed-loop-btree": dict(engine=Engine.BTREE, **FAST),
    "pooled-lsm": dict(engine=Engine.LSM, nclients=4, **FAST),
    # Pure-get measured phase: the level-wide read index and the
    # channelized read fold with no write interference.
    "read-only-lsm": dict(engine=Engine.LSM, read_fraction=1.0, **FAST),
    "read-only-btree": dict(engine=Engine.BTREE, read_fraction=1.0, **FAST),
    # Scan-heavy mix: the LSM scan merge / B+Tree leaf walk (§13).
    "scan-mix-lsm": dict(engine=Engine.LSM, **SCAN_MIX, **FAST),
    "scan-mix-btree": dict(engine=Engine.BTREE, **SCAN_MIX, **FAST),
    "pooled-zipfian-scan-mix-lsm": dict(
        engine=Engine.LSM, nclients=4, distribution="zipfian", **SCAN_MIX,
        **FAST),
    "fleet-2shard-lsm": dict(engine=Engine.LSM, nshards=2, nclients=4, **FAST),
    # The specs below were pinned by batched-vs-scalar driver
    # comparisons until the scalar drivers were deleted; both drivers
    # produced these digests at the commit before the deletion.
    "pipeline-lsm": dict(engine=Engine.LSM, **PIPELINE, **READ_DELETE),
    "pipeline-btree": dict(engine=Engine.BTREE, **PIPELINE, **READ_DELETE),
    # GC-heavy steady state from the first op: the write-stall replay.
    "pipeline-preconditioned-lsm": dict(
        engine=Engine.LSM, drive_state=DriveState.PRECONDITIONED,
        duration_capacity_writes=1.0, **PIPELINE),
    "pool1-mixed-lsm": dict(engine=Engine.LSM, nclients=1, **POOL_MIXED),
    "pool1-mixed-btree": dict(engine=Engine.BTREE, nclients=1, **POOL_MIXED),
    "pool4-mixed-lsm": dict(engine=Engine.LSM, nclients=4, **POOL_MIXED),
    "pool4-mixed-btree": dict(engine=Engine.BTREE, nclients=4, **POOL_MIXED),
    "out-of-space-pool4-lsm": dict(engine=Engine.LSM, **OUT_OF_SPACE),
    "out-of-space-pool4-btree": dict(engine=Engine.BTREE, **OUT_OF_SPACE),
    "pool16-lsm": dict(engine=Engine.LSM, **POOL16),
    "pool16-btree": dict(engine=Engine.BTREE, **POOL16),
    # The exposed range and the retry wrap; recorded at the last commit
    # that had ``Partition`` and the filesystem's retry branches.
    "op25-preconditioned-lsm": dict(
        engine=Engine.LSM, drive_state=DriveState.PRECONDITIONED,
        trace_lba=True, **OP25, **FAST),
    "op25-preconditioned-btree": dict(
        engine=Engine.BTREE, drive_state=DriveState.PRECONDITIONED,
        trace_lba=True, **OP25, **FAST),
    "op25-pool4-ssd3-btree": dict(
        engine=Engine.BTREE, ssd="ssd3", nclients=4, read_fraction=0.25,
        **OP25, **FAST),
    "faults-lsm": dict(engine=Engine.LSM, **FAULTS, **FAST),
    "faults-btree": dict(engine=Engine.BTREE, **FAULTS, **FAST),
    "faults-pool4-btree": dict(engine=Engine.BTREE, nclients=4, **FAULTS,
                               **FAST),
}

GOLDEN = {
    "closed-loop-lsm":
        "90deb04475905a36a97df2c8d37c0b6ed321ad3776a5a4c0b2ace17e68c034fb",
    "closed-loop-btree":
        "5cccc886bb1a9d47b2ce6f8945bb803e662776e3364a6aea59795cd46ffbe21c",
    "pooled-lsm":
        "f15fdae314a369c0d88aaf9c594de282c2c8b0469d7d74848adcb14125837f63",
    "read-only-lsm":
        "10b7c3638e6ce61faaf7e0b787aa4986ac02cbd3ad5075e20a3bc40fc9eea671",
    "read-only-btree":
        "20d98215ded9c2205134c5b8c08490b8c8a9f0ff2870330cbd9c239e2650a85f",
    "scan-mix-lsm":
        "4e7808ce9dee34de9134e18b6e1119542231f00718bd0d4f43c832e991ca7c4f",
    "scan-mix-btree":
        "e0eef795ae0878d7756a996c8a9621635e4ce7addcc9b0c8ce8c6eb62925cc8c",
    "pooled-zipfian-scan-mix-lsm":
        "43798a07f18f690380aad1ff5c91711fc2717c4e29ef2f85d46c774fd99a438d",
    "fleet-2shard-lsm":
        "d13da012f758350cff3f008d5bfb5b3b98cab67a8a36e0182b181d95e4794f82",
    "pipeline-lsm":
        "31704e1230f0a312dda943ff3af2d3e90439f48136d30762cbd236317699b130",
    "pipeline-btree":
        "4e31d6db980f5e0a4c626f5deca86b991566d463b6c0c8e930ddd3abcaa63ce0",
    "pipeline-preconditioned-lsm":
        "0f7ba2d5ca39a92be99cb753b9980e68504a8e2bb7b6e05d5596ab5319db45df",
    "pool1-mixed-lsm":
        "5761b695ac4b92febd06244a4f4514ffecbee7dd55dc0e08a55505153783fb7a",
    "pool1-mixed-btree":
        "75b1b85aebe0cbc90b8c65f6afd05a3f1f5d4ae3a2f1e09d90d7bf2897bbaf0b",
    "pool4-mixed-lsm":
        "0cf36ecb8a1a52b8017d91e19c18e1b8b6f5c2899366c2f2a7d87141c7c03516",
    "pool4-mixed-btree":
        "39c3e89e37ef07fb3c821d09e1fc30621a4a5dfc0072235f9e244de6d1ec4d64",
    "out-of-space-pool4-lsm":
        "b3d9cc91df5def0b88c635739538333af1e3da59ce6751bdd5279093bcb9df5b",
    "out-of-space-pool4-btree":
        "7bf780bd2912ed8ea67f3a4d78982df58785893a7979c6596a73e4688ab45059",
    "pool16-lsm":
        "c43eb208caee46016c2639fc838cc9b606937256044a1f8de6f95d5df814f70d",
    "pool16-btree":
        "a96e05a429d9384f2090c39b13146ad2d483bd46ee2030ae77e0a9e1851a4785",
    "op25-preconditioned-lsm":
        "82e6e14978f0bef302f96bea86702989222f013926068ea83e0fce72debb05b3",
    "op25-preconditioned-btree":
        "9f521b159db8ac610a5ab3734385dfdd4c5e45acf6610272d823dfc1ee54b100",
    "op25-pool4-ssd3-btree":
        "b99f4fa7160f9242868b51d59dc29442be0f5f5cafb31a9b2598a99366eac2fb",
    "faults-lsm":
        "b722097189fa59a35315aed00d70cc762372da844cdc4721bbf32dce9ecbc553",
    "faults-btree":
        "a4777d58ecef86be4305d1cd3ef680b03adc71e89e6bd54ca6e24fd6c11e1e0c",
    "faults-pool4-btree":
        "8fff27e723995c4815a896e37b9d306c799e077c31039050ba9f0a3eefac3ba6",
}


def fingerprint(name: str) -> str:
    record = run_experiment(ExperimentSpec(**SPECS[name])).to_dict()
    text = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(SPECS))
def test_golden_fingerprint(name):
    assert fingerprint(name) == GOLDEN[name]


if __name__ == "__main__":
    print(json.dumps({name: fingerprint(name) for name in SPECS}, indent=4))
