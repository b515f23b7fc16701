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

Twenty-five of the twenty-six were re-recorded when device MB/s
became a delta of the block layer's own counters (``IOStat``'s
timestamp bins are gone): with ``dev_write_mbps`` / ``dev_read_mbps``
dropped from ``samples`` and ``steady`` all twenty-six digests were
equal before and after (CHANGES.md, PR 24, has the table and the
recipe is in ``.claude/skills/verify/SKILL.md``), and the two fields
that moved are held by a law the old values broke — the windows of a
run sum to the bytes the block layer counted
(``tests/core/test_conservation.py``).  ``out-of-space-pool4-btree``
has no samples and kept its literal.  All thirty were re-recorded
again when ``ExperimentSpec`` lost six fields only tests set: the
``--mask spec,cell`` digests below were equal before and after, so
only the spec's own record and its hash moved.

A mismatch means simulated behaviour changed.  If that is *intended*
(and justified by an independent reference, per the ROADMAP standing
rule), regenerate with::

    PYTHONPATH=src python tests/core/test_golden_fingerprints.py

and paste the printed dict over ``GOLDEN``.  When only some keys were
meant to move, first show that nothing else did: ``--mask spec,cell``
prints the digests with those keys popped from each record, from its
``steady`` and from every sample; run it at the parent and at the
change, and the two dicts must be equal.
"""

from __future__ import annotations

import argparse
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

#: Open-loop traffic over two shards, every op kind in the mix: a
#: poisson source that at times fills a queue, so admission rejects.
OPEN_LOOP = dict(
    capacity_bytes=24 * MIB,
    dataset_fraction=0.3,
    duration_capacity_writes=50.0,
    sample_interval=0.05,
    max_ops=2500,
    nshards=2,
    arrival="poisson",
    arrival_rate=8000.0,
    queue_cap=16,
    read_fraction=0.25,
    scan_fraction=0.1,
    delete_fraction=0.05,
    scan_length=20,
)

#: The same fleet past saturation with a shard kill, an op deadline and
#: device faults: fail-fast, retries, recovery, timeouts, engine retries.
OPEN_LOOP_CHAOS = dict(
    OPEN_LOOP, arrival_rate=24_000.0, kill_at=0.05, kill_shard=1,
    op_timeout_ms=4.0, faults=FAULTS["faults"],
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
    # The open loop (FleetPool).  Recorded while its source still drew
    # one op at a time and its shards served through the per-op API;
    # the planner-drawn, batch-served fleet reproduces them.
    "open-loop-mix-lsm": dict(engine=Engine.LSM, **OPEN_LOOP),
    "open-loop-mix-btree": dict(engine=Engine.BTREE, **OPEN_LOOP),
    "open-loop-chaos-lsm": dict(engine=Engine.LSM, **OPEN_LOOP_CHAOS),
    "open-loop-chaos-btree": dict(engine=Engine.BTREE, **OPEN_LOOP_CHAOS),
}

GOLDEN = {
    "closed-loop-lsm":
        "0b35a779825239e36382d4d685356c0c460c04b8f669441e31e636f03fe1ddbb",
    "closed-loop-btree":
        "b8c44aca8d294f70ba03329a399fc73dc04be7b3d084fc2b8b5d4ac5193b38cd",
    "pooled-lsm":
        "a205af632f996200970071bffa49789020228d832b02aa6807c78f7442757c90",
    "read-only-lsm":
        "14202449759cb17dd2de43b96db105c6d9a48c05abb829ddd6b48b7d64e78fea",
    "read-only-btree":
        "89d24fbcae2acdf9c042488fd59c9d0be3af9ebb9166cfcf2be418edd342f6fa",
    "scan-mix-lsm":
        "b27bf67b2108cf3562736bca50649dc603f357395a4656531517ee98057857a5",
    "scan-mix-btree":
        "82cb010babc96178fb4d9d9fe2ecf1b30b166332fe94ae5e72cda8f9bacb9456",
    "pooled-zipfian-scan-mix-lsm":
        "89038d65b6940a3f5291ecf81beb3e359a2e34a086a82d6157d29cc503c722db",
    "fleet-2shard-lsm":
        "b704c63a1b781633c8fb97a49d129af8ff952044534ffb6a2a7bcc727c8c0948",
    "pipeline-lsm":
        "e10ea8800308149a72ad256cb3d63a14f3d5376411d34ea8b7c588040f94efee",
    "pipeline-btree":
        "e68ee84c3f097aea644e68ded94433a18d2c202c6555efcb57bc9572ec3ffd1f",
    "pipeline-preconditioned-lsm":
        "d7c972cafb794c63da9d2bfa0bf9d40043d658c1e5ec172f3ec726913bc9dbfc",
    "pool1-mixed-lsm":
        "10a75a07d5b0bd6840d4868b967d3a81e227f2fa7686f32d50bdd304c84ba2bb",
    "pool1-mixed-btree":
        "f11d762502fe983fc9dbf1939b902b987ab6c4ec623861d4081693aed1ce6d29",
    "pool4-mixed-lsm":
        "b6c6947653fdc3eb6c5fc2d57f40c814190dc5dda15b1c57105a95fe2e3b670f",
    "pool4-mixed-btree":
        "9aeeeee425aa307293e4e2969f756451f35734eda2c75cc62dbe8bf6c3db83d8",
    "out-of-space-pool4-lsm":
        "866d207c0b2d03e25dfbc6110c04d75fdbd91f2f5222e4824af50d6eed42a43f",
    "out-of-space-pool4-btree":
        "57123f9731f169377a623fc09feb80ad3507f8baac8234e4f06ae50a4d7cfa0a",
    "pool16-lsm":
        "7258250da96aa10e9cb92e19f0407cb633280cd17540bd8f065b8844ce4e5367",
    "pool16-btree":
        "4ab14658fdc0960ae5be712ccfb1a7a5fd79dce339401d42a1a76a168b8842e9",
    "op25-preconditioned-lsm":
        "d67d6668c27fcb7af909327f1df55bb293c1b6fa321f98920f7b9e0e750bd4c5",
    "op25-preconditioned-btree":
        "04487709be6766f7b66325a3ea6018b2ef1f2401ec5a76096a641d664d5bfa0f",
    "op25-pool4-ssd3-btree":
        "67bb399018287d16a405d72e6c50f75716eceab8e00bce801c617731d9921af4",
    "faults-lsm":
        "ab9424d54306256455d60dfbb77ec6e74926556d6a31ff0805ef6cd249735b2c",
    "faults-btree":
        "5110709ada524b1b92b4363559298b6a60696edc3c14754e84658c19bf826138",
    "faults-pool4-btree":
        "6c14faf3b94b37476c708142a85a1590ef3aa106511b9738c255a9973b922487",
    "open-loop-mix-lsm":
        "51d5fd9e97fe37451129cc26ee8cc48a0165bfe6d35b08bf011604a83c653750",
    "open-loop-mix-btree":
        "ebc076e3d359f2991b94b7fec688882a6e1d11f24392dd424585abb8f7b13ae6",
    "open-loop-chaos-lsm":
        "b787745e91706416a472db9c294109acee92ccff9eed9c15a94c5d939c9f8d64",
    "open-loop-chaos-btree":
        "849b048aa8ce329e54487d56412474b181ad5450ecb9bd526e55073c93782fa1",
}


def fingerprint(name: str, mask: tuple[str, ...] = ()) -> str:
    """The digest of *name*'s record, with the *mask* keys popped from
    the record, from ``steady`` and from every sample."""
    record = run_experiment(ExperimentSpec(**SPECS[name])).to_dict()
    for part in [record, record["steady"] or {}, *(record["samples"] or [])]:
        for key in mask:
            part.pop(key, None)
    text = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(SPECS))
def test_golden_fingerprint(name):
    assert fingerprint(name) == GOLDEN[name]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mask", default="",
                        help="comma-separated keys to pop before digesting")
    mask = tuple(key for key in parser.parse_args().mask.split(",") if key)
    print(json.dumps({name: fingerprint(name, mask) for name in SPECS},
                     indent=4))
