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
only the spec's own record and its hash moved; and once more when the
record gained the counter snapshot and the LBA histogram and the hash
dropped ``name``: ``--mask cell,counters,lba_histogram`` was equal
before and after.  Every record also reads back into its result
(``ExperimentResult.from_record``) exactly.  ``out-of-space-pool4-lsm``
was re-recorded when engines stopped running background work as
scheduler events: the op whose own flush runs out of space is no
longer counted (780 ops → 779), as for a lone client, and the
reference driver agrees (``tests/sim/test_batched_pool.py``,
``test_out_of_space_equivalent``).

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
import functools
import hashlib
import json

import pytest

from repro.campaign import canonical_line
from repro.core.experiment import (Engine, ExperimentResult, ExperimentSpec,
                                   run_experiment)
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

#: Fig 9's LSM cell on SSD2 at the small figure scale (a trimmed
#: drive, a sixth of it loaded), cut to one capacity of host writes:
#: background work outruns SSD2's small write cache, so writes stall,
#: past the soft limit and once past the hard one.
FIG9_SSD2 = dict(ssd="ssd2", capacity_bytes=48 * MIB, dataset_fraction=1 / 6,
                 duration_capacity_writes=1.0, sample_interval=0.2)

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
    "fig9-small-ssd2-lsm": dict(engine=Engine.LSM, **FIG9_SSD2),
}

GOLDEN = {
    "closed-loop-lsm":
        "773e29e90320edbdbad9dcc47c127b853f05fecc6f1e0e654a5e2187fd1e2d79",
    "closed-loop-btree":
        "bde317c0c8a120c26314115660c9d0ec1965ce1e16aa3496f068048475ecd7ab",
    "pooled-lsm":
        "633ff0b69184513bc519545a5f2a87e5abb5adbcc4c60453fde6a4e8df7877c8",
    "read-only-lsm":
        "aa510c4a21ead4cb27de45bbb81a1bffd486306cadd9be523aaa0a46e01dac2e",
    "read-only-btree":
        "3fa34945e907512c11a49f2a59265bfbd4bda6cb890175b09275b442849a7381",
    "scan-mix-lsm":
        "b0a5936c81f42f58e98a8f9f0b369c063a12d9eb8dda19f1ce311f5dbce823ec",
    "scan-mix-btree":
        "06aad0e5e63d5301509454657119986b0f66a1ea586016f56291b46c70cc8387",
    "pooled-zipfian-scan-mix-lsm":
        "7891f433af004ad504f29bcaafafbc039032a77b9ae793eb65f593a9019816ac",
    "fleet-2shard-lsm":
        "c5348693121d79b2c4e3090f09c19ea12c47cac920fb8a8744a76c69ffc8d77b",
    "pipeline-lsm":
        "f60c9c6b9db1ed91636c6411776fb73b89276f9c8f09444dc0fdefd5bd11ca2c",
    "pipeline-btree":
        "b8cd99bed0f44e668a0c92686443a63c9987740e7b4f7a182309d1660397ad4f",
    "pipeline-preconditioned-lsm":
        "f3abc5779d92d301868d8e6e12eb1e2490cf08fec2f77a1279dc9b18688accec",
    "pool1-mixed-lsm":
        "4057131ea2479ec6935183ac98b63f954eab7904793d87c98d1e1a4c82428cfd",
    "pool1-mixed-btree":
        "3bab88db86d77e769a372a4a1e7ed4fb2f7621b271cb8ae39574d7654e38121e",
    "pool4-mixed-lsm":
        "cd12f92c4803a4f4ef5ddd2b31d893da854b3e95c3bdce5c9479bd9780cad3b8",
    "pool4-mixed-btree":
        "4c5be7402518a9aaf06c8036b072f220669b7b0ff78916b9b02d39059ab83b0b",
    "out-of-space-pool4-lsm":
        "4bf23af5042de0730417c8f303224ec5d5a4051864e9ca638d38c573f03c2387",
    "out-of-space-pool4-btree":
        "fc51421806f10886759f31f3acb8f3328450e3bb37b2672029f23a64428d9f0f",
    "pool16-lsm":
        "2ae0cb71918a571806326e981a75cba705bdbd2ad41d3ea4c7f380850465ec03",
    "pool16-btree":
        "b324d032099605a00a5def273efb911c421f3a0c52cb750c1d7c88ffda9da9b8",
    "op25-preconditioned-lsm":
        "2fdef0f8fa3a935838bc4b1badfe6c84b1f672c46af340a88d3541f0699452e6",
    "op25-preconditioned-btree":
        "e4bc6d6539d50864279c9037394cc8cf67712a37d84fc860c18a37b6aa5bc7da",
    "op25-pool4-ssd3-btree":
        "9734bff15e73b7ef0d0d2a7e07c8002647e83cc83f109a16c7085c93b0e5730c",
    "faults-lsm":
        "07d617c0f734a7e16403c31b4df501b822b0ac67d1210aa3a54ba8b4acf03ca2",
    "faults-btree":
        "4bb690420cf058b923ac3a2f7cd9b13bc5686e3425a726d935fdb020374d7929",
    "faults-pool4-btree":
        "547e2902773b20e66b05064e0454e1119209bbee83416516158587ea2b65dac5",
    "open-loop-mix-lsm":
        "7f64e5d5c38bcb47a2ce545517c9b9c72fa6f911c5d1d4c516a96481fe0020ad",
    "open-loop-mix-btree":
        "c650f32aeba7520e4288f2e82a8a8a2e6ba1ddd301def3873eafcfa37b52daf9",
    "open-loop-chaos-lsm":
        "54b858892d0b78cac3c9dffe3be3fc0047385b4c1a5299117cee3925de219de2",
    "open-loop-chaos-btree":
        "621fcbe3333ecf830ed924ba5468d187bde43b644f61bf8e04c97aeefca1b004",
    "fig9-small-ssd2-lsm":
        "a48973c4ebf52fb7b5664853fed7a74ee80ce64cc3be2eaf3b321c027d4ac046",
}


@functools.cache
def run(name: str) -> ExperimentResult:
    return run_experiment(ExperimentSpec(**SPECS[name]))


def fingerprint(name: str, mask: tuple[str, ...] = ()) -> str:
    """The digest of *name*'s record, with the *mask* keys popped from
    the record, from ``steady`` and from every sample."""
    record = run(name).to_dict()
    for part in [record, record["steady"] or {}, *(record["samples"] or [])]:
        for key in mask:
            part.pop(key, None)
    text = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(SPECS))
def test_golden_fingerprint(name):
    assert fingerprint(name) == GOLDEN[name]


@pytest.mark.parametrize("name", list(SPECS))
def test_record_reads_back_into_its_result(name):
    """A stored record (canonical JSON) is the result it came from."""
    record = run(name).to_dict()
    stored = json.loads(canonical_line(record))
    assert ExperimentResult.from_record(stored).to_dict() == record


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mask", default="",
                        help="comma-separated keys to pop before digesting")
    mask = tuple(key for key in parser.parse_args().mask.split(",") if key)
    print(json.dumps({name: fingerprint(name, mask) for name in SPECS},
                     indent=4))
