"""Fleet subsystem: shard routing, the measured-phase driver
(:class:`~repro.fleet.pool.FleetPool`: closed-loop clients or open-loop
arrivals over the shard list), SLO metrics.

See DESIGN.md §4.3 and §10.  The modules here deliberately avoid
importing the experiment layer (stack assembly lives in
:mod:`repro.core.stack`) so the dependency graph stays acyclic.
"""

from repro.fleet.arrival import (ARRIVALS, ArrivalProcess, BurstyArrival,
                                 DiurnalArrival, PoissonArrival, make_arrival,
                                 validate_arrival)
from repro.fleet.pool import FleetCounters, FleetPool
from repro.fleet.router import (ROUTERS, HashRouter, RangeRouter, Router,
                                make_router)

__all__ = [
    "ARRIVALS", "ArrivalProcess", "BurstyArrival", "DiurnalArrival",
    "PoissonArrival", "make_arrival", "validate_arrival",
    "FleetCounters", "FleetPool",
    "ROUTERS", "HashRouter", "RangeRouter", "Router", "make_router",
]
