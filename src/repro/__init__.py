"""repro — a reproduction of Didona et al., "Toward a Better
Understanding and Evaluation of Tree Structures on Flash SSDs"
(VLDB 2020).

The package bundles:

* a flash SSD simulator (:mod:`repro.flash`) with FTL, garbage
  collection, trim/preconditioning and SSD1/SSD2/SSD3 device profiles;
* an OS block layer (:mod:`repro.block`): the device the filesystem
  mounts, its exposed range (software over-provisioning), its
  iostat byte counters and a blktrace-style monitor;
* an extent filesystem (:mod:`repro.fs`);
* two key-value engines: an LSM tree (:mod:`repro.lsm`, the RocksDB
  model) and a B+Tree (:mod:`repro.btree`, the WiredTiger model);
* workload generation (:mod:`repro.workload`);
* the paper's benchmarking methodology (:mod:`repro.core`): metrics,
  CUSUM steady-state detection, experiment orchestration, the storage
  cost model, the seven-pitfall checklist, and one function per paper
  figure (:mod:`repro.core.figures`).

Quickstart::

    from repro.core import ExperimentSpec, Engine, run_experiment

    result = run_experiment(ExperimentSpec(engine=Engine.LSM))
    print(result.steady.kv_tput, result.steady.wa_a, result.steady.wa_d)
"""

from repro.core import (
    Engine,
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.flash import DriveState, get_profile
from repro.kv import KVStore, Value, materialize, value_for

__version__ = "1.0.0"

__all__ = [
    "Engine",
    "ExperimentSpec",
    "ExperimentResult",
    "run_experiment",
    "DriveState",
    "get_profile",
    "KVStore",
    "Value",
    "materialize",
    "value_for",
    "__version__",
]
