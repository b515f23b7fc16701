"""Golden fingerprints of whole experiments (DESIGN.md §12.2).

Each spec's full simulated outcome — every sample, SMART counter,
latency percentile and per-client op count; ``ExperimentResult.
to_dict()`` minus the two host wall-clock fields — is serialised
(``json.dumps(..., sort_keys=True, default=repr)``) and its SHA-256
compared with a literal.  The literals were recorded at the commit
that retired the array/scalar kernel switch, where the array kernels
and their scalar twins both produced them; they are what now pins the
extent stream, FTL mappings, merge orders and read charges end to end.

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
from repro.units import MIB

FAST = dict(
    capacity_bytes=24 * MIB,
    duration_capacity_writes=1.0,
    sample_interval=0.05,
    max_ops=12_000,
)

SCAN_MIX = dict(read_fraction=0.25, scan_fraction=0.25)

SPECS = {
    "closed-loop-lsm": dict(engine=Engine.LSM),
    "closed-loop-btree": dict(engine=Engine.BTREE),
    "pooled-lsm": dict(engine=Engine.LSM, nclients=4),
    # Pure-get measured phase: the level-wide read index and the
    # channelized read fold with no write interference.
    "read-only-lsm": dict(engine=Engine.LSM, read_fraction=1.0),
    "read-only-btree": dict(engine=Engine.BTREE, read_fraction=1.0),
    # Scan-heavy mix: the LSM scan merge / B+Tree leaf walk (§13).
    "scan-mix-lsm": dict(engine=Engine.LSM, **SCAN_MIX),
    "scan-mix-btree": dict(engine=Engine.BTREE, **SCAN_MIX),
    "pooled-zipfian-scan-mix-lsm": dict(
        engine=Engine.LSM, nclients=4, distribution="zipfian", **SCAN_MIX),
    "fleet-2shard-lsm": dict(engine=Engine.LSM, nshards=2, nclients=4),
}

GOLDEN = {
    "closed-loop-lsm":
        "b1d7f58d771e7a9066669c529aec48a25d86e047d392c162e373a456e0d543aa",
    "closed-loop-btree":
        "2a14943053abb210140de73d157b7aba27c6c14f6ef5891431fb31bd4b4acaf1",
    "pooled-lsm":
        "0c5835076c3069bc5d54044b2a94871c0c4e736466a64c5bb573804ea54c4ad1",
    "read-only-lsm":
        "7fcff6a530d0930d9ce55c030cd053b7e24fe903db73b0dbede77c42a79cd0f6",
    "read-only-btree":
        "43f09bbc92c89aff0fd3ff1cd4609882ff592cdf78dfb5df696626e9069b739a",
    "scan-mix-lsm":
        "b33ac5f32df69024044c8c54135baf4e5ed98e865aaf97cd7e9317f7813f45b7",
    "scan-mix-btree":
        "e70e2d4edf22f4fa028b1e96cff461db88b8a15745745c7f8bbbbdf2952054ea",
    "pooled-zipfian-scan-mix-lsm":
        "68e677314926c53ffdb2f9926312e3e132aa61a2fae1b127e300afc4c2a74964",
    "fleet-2shard-lsm":
        "e32ee8076b61758595c20b6baf9f48de8ec2a7310016c18a6697273173623a8f",
}


def fingerprint(name: str) -> str:
    record = run_experiment(ExperimentSpec(**SPECS[name], **FAST)).to_dict()
    record.pop("load_seconds")  # host wall time: the only legitimate delta
    record.pop("run_seconds")
    text = json.dumps(record, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(SPECS))
def test_golden_fingerprint(name):
    assert fingerprint(name) == GOLDEN[name]


if __name__ == "__main__":
    print(json.dumps({name: fingerprint(name) for name in SPECS}, indent=4))
