"""The shared batch planner and the event-aware until proxy."""

from __future__ import annotations

import numpy as np

from repro import rng as rng_mod
from repro.core.clock import VirtualClock
from repro.sim.scheduler import Scheduler
from repro.workload.keys import make_chooser
from repro.workload.plan import (
    DELETE, READ, SCAN, UPDATE, BatchPlanner, EventAwareUntil, update_seeds,
)
from repro.workload.spec import WorkloadSpec


def make_planner(spec: WorkloadSpec, seed: int = 11) -> BatchPlanner:
    key_rng = rng_mod.substream(seed, "workload-keys")
    op_rng = rng_mod.substream(seed, "workload-ops")
    chooser = make_chooser(spec.distribution, spec.nkeys, key_rng)
    return BatchPlanner(spec, chooser, op_rng)


def scalar_stream(spec: WorkloadSpec, n: int, seed: int = 11):
    """(kind, key) pairs as the per-op ``draw_op`` dispatch draws them."""
    key_rng = rng_mod.substream(seed, "workload-keys")
    op_rng = rng_mod.substream(seed, "workload-ops")
    chooser = make_chooser(spec.distribution, spec.nkeys, key_rng)
    out = []
    for _ in range(n):
        key = chooser.next_key()
        draw = op_rng.random()
        if draw < spec.read_fraction:
            kind = READ
        elif draw < spec.read_fraction + spec.scan_fraction:
            kind = SCAN
        elif draw < (spec.read_fraction + spec.scan_fraction
                     + spec.delete_fraction):
            kind = DELETE
        else:
            kind = UPDATE
        out.append((kind, key))
    return out


class TestBatchPlanner:
    def test_runs_flatten_to_the_scalar_stream(self):
        spec = WorkloadSpec(nkeys=500, value_bytes=64, read_fraction=0.3,
                            scan_fraction=0.2, delete_fraction=0.1)
        planner = make_planner(spec)
        planned = []
        for _ in range(4):
            for run in planner.plan(64):
                planned.extend((run.kind, int(k)) for k in run.keys)
        assert planned == scalar_stream(spec, 256)

    def test_runs_are_maximal_and_ordered(self):
        spec = WorkloadSpec(nkeys=500, value_bytes=64, read_fraction=0.5)
        runs = make_planner(spec).plan(64)
        assert sum(len(run) for run in runs) == 64
        for left, right in zip(runs, runs[1:]):
            assert left.kind != right.kind  # maximal same-kind segments

    def test_update_only_shortcut_keeps_rng_alignment(self):
        spec = WorkloadSpec(nkeys=500, value_bytes=64)
        planner = make_planner(spec)
        runs = planner.plan(64)
        assert len(runs) == 1 and runs[0].kind == UPDATE
        # The op-draw stream advanced exactly 64 draws despite the
        # shortcut: the next window matches the scalar stream.
        assert [(UPDATE, key) for _run in planner.plan(64)
                for key in _run.keys.tolist()] == scalar_stream(spec, 128)[64:]

    def test_update_seeds_cover_version_range(self):
        from repro.kv.values import value_for

        keys = np.array([3, 9, 3], dtype=np.int64)
        seeds = update_seeds(keys, version=5)
        expected = [value_for(int(k), 5 + i, 64).seed
                    for i, k in enumerate(keys)]
        assert seeds.tolist() == expected


class TestEventAwareUntil:
    def make(self, cap=None):
        scheduler = Scheduler(VirtualClock())
        return scheduler, EventAwareUntil(scheduler, cap=cap)

    def test_idle_scheduler_never_stops_the_batch(self):
        _sched, until = self.make()
        assert not (1e9 >= until)

    def test_cap_behaves_like_a_float_boundary(self):
        _sched, until = self.make(cap=2.0)
        assert not (1.5 >= until)
        assert 2.0 >= until
        assert 2.5 >= until

    def test_pending_event_stops_at_its_time(self):
        scheduler, until = self.make()
        scheduler.schedule(5.0, lambda: None)
        assert not (4.9 >= until)
        assert 5.0 >= until  # tie: the pending event has the older seq
        assert 5.1 >= until

    def test_event_scheduled_mid_batch_is_seen_live(self):
        scheduler, until = self.make()
        assert not (10.0 >= until)
        scheduler.schedule(3.0, lambda: None)
        assert 10.0 >= until  # no caching: the new event interrupts
