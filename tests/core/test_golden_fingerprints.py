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
has no samples and kept its literal.

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
        "429f8eb154a17d89537a263ec9d2c8cea4513bf0e7949bc09bec48a8d599490c",
    "closed-loop-btree":
        "a435c2aac62e71e5d94a660a7d69dc438fc740fd1e7620073b9f34ecffdc1100",
    "pooled-lsm":
        "0f2c11752866934ee5a8a4fa808d739165495688355fceeb6b492d2fe222fdb2",
    "read-only-lsm":
        "41aa55be377a7e17bc7ad3d73c3852bbe86148c921fbc0504c3abd2d68a57739",
    "read-only-btree":
        "2ed30cfdbf97d59e0337e7b7f645e2530b90da9b36430eaa71ac62282aeafffa",
    "scan-mix-lsm":
        "db0437bbbed858130a81d2ac286a6c0709fa94a9ccf7be04c0377bac14af381c",
    "scan-mix-btree":
        "8063d876ab2685b86915adb8cb02f93c2d7730bdb40619c37f1bffea7f753333",
    "pooled-zipfian-scan-mix-lsm":
        "321c0bd3e099f831c9f209ff67dec3b3c2a941f3cd47e25dd8c47d7b9265a8d9",
    "fleet-2shard-lsm":
        "1cced29af0679417105a095c031aa4538a11aa3ad0a8f79b7fb7b8e2ccb22828",
    "pipeline-lsm":
        "030e3bbb253236340faf53ebab9db65dcf4aa154b617462b4f3c24843c7b9d99",
    "pipeline-btree":
        "47dd803e234c63f31ce8fa6a25764ada521151c4ab288020612eb7a88a06fa95",
    "pipeline-preconditioned-lsm":
        "66f73a144b41511fb43a60021e00ab86387b6ba5d3b3fa52b3902d6072348ecd",
    "pool1-mixed-lsm":
        "df792b704dfdb1a0c9862d73c1a359deebc446ef4122ceac27b4edb77bc33bd0",
    "pool1-mixed-btree":
        "70da663756ba602abaad338aab4dd7d670b1f98d88cf18d41c64d0ce74a6567f",
    "pool4-mixed-lsm":
        "d6ee45d98a96d389fee28ec7628428c87c1f7038e7452dd5a0ed7eec2e412de5",
    "pool4-mixed-btree":
        "6410b12ffcc8511e872b5dd71140790834a2f679eb45258a678e9a1cb66547c7",
    "out-of-space-pool4-lsm":
        "96e1103037d4cedbc30bea4a2f739c3e36489e792ee9674ad4c7dd1e813b1cb7",
    "out-of-space-pool4-btree":
        "7bf780bd2912ed8ea67f3a4d78982df58785893a7979c6596a73e4688ab45059",
    "pool16-lsm":
        "0958a9727d80acd57544e5ad3edb22d4b843fb1b0e0504a5fc94c35d0cacd79c",
    "pool16-btree":
        "4214e729d8cd325c5d0e081891c0a648b73a6c2de85dcfd4e85cdc8fd5c1e20c",
    "op25-preconditioned-lsm":
        "0a7f45a3b1891417482bc34d655fc0ff751dadce324f69e53ff0ed4aa18b94d1",
    "op25-preconditioned-btree":
        "db2b5c8232e9f30f2f97c21dc4f12562a16fc532ee1531f6d8243efae3d2df5f",
    "op25-pool4-ssd3-btree":
        "d2067c32237d2043e3bf7cb88ac3c6be7eb9ab5028a3d532b80e932467fb586d",
    "faults-lsm":
        "bbe3cd3c60616f10c9082d2749e4ea23d05726589eeafa93e98cb0bba8673d6a",
    "faults-btree":
        "b419f7cce95a8384f23bda2aafc92d2d594c1f5e94e0e036d9a754eb4739b5a4",
    "faults-pool4-btree":
        "c2dc12501f37738ab4575d304b51c44b72534d9a22c5c25743237b600eb1fc59",
    "open-loop-mix-lsm":
        "90cba74ccacac481d37437afba4bcc13ee0e28af93925f785ef85e56f5f9f869",
    "open-loop-mix-btree":
        "08aaca5733ea01b9c87de837b53bc3c726cb8dcecf1907ea0072e9d41dae45ea",
    "open-loop-chaos-lsm":
        "6b69fe95fe17a4dd3c8ce985d9ed41528cd72f8af3182984c5aff64b31e19709",
    "open-loop-chaos-btree":
        "d26ab59becfce73bf52c37111011a20f9b772d39c2745b2b952845b6aa2413b4",
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
