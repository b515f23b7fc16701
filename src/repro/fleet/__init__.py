"""Fleet subsystem: shard routing, open-loop traffic, SLO metrics.

See DESIGN.md §10.  The modules here deliberately avoid importing the
experiment layer (stack assembly lives in :mod:`repro.core.stack`)
so the dependency graph stays acyclic.
"""

from repro.fleet.arrival import (ARRIVALS, ArrivalProcess, BurstyArrival,
                                 DiurnalArrival, PoissonArrival, make_arrival,
                                 validate_arrival)
from repro.fleet.pool import FleetCounters, FleetPool
from repro.fleet.router import (ROUTERS, HashRouter, RangeRouter, Router,
                                make_router)
from repro.fleet.sharded import ShardedStore

__all__ = [
    "ARRIVALS", "ArrivalProcess", "BurstyArrival", "DiurnalArrival",
    "PoissonArrival", "make_arrival", "validate_arrival",
    "FleetCounters", "FleetPool",
    "ROUTERS", "HashRouter", "RangeRouter", "Router", "make_router",
    "ShardedStore",
]
