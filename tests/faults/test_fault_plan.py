"""Unit tests for fault plans, device injection, and retry policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.block.device import BlockDevice
from repro.core.clock import VirtualClock
from repro.core.experiment import ExperimentSpec
from repro.errors import ConfigError, ProgramFaultError, TransientDeviceError
from repro.faults import (DegradeWindow, FaultPlan, NO_FAULTS, RetryPolicy,
                          validate_faults)
from repro.flash.ssd import SSD
from repro.fs.filesystem import ExtentFilesystem
from tests.conftest import make_tiny_config


def make_ssd(nblocks=64):
    clock = VirtualClock()
    return SSD(make_tiny_config(nblocks=nblocks), clock), clock


def make_plan(faults, seed=7):
    return FaultPlan(faults, rng_mod.substream(seed, "faults"))


class TestValidation:
    """Fail-fast spec validation with actionable messages."""

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown fault kind 'flaky'"):
            validate_faults({"flaky": 0.5})

    def test_not_a_dict(self):
        with pytest.raises(ConfigError, match="faults must be a dict"):
            validate_faults([("read", 0.1)])

    @pytest.mark.parametrize("kind", ["read", "program", "latency", "bad_block"])
    def test_negative_rate(self, kind):
        with pytest.raises(ConfigError,
                           match=rf"fault rate '{kind}' must be within \[0, 1\]"):
            validate_faults({kind: -0.1})

    def test_rate_above_one(self):
        with pytest.raises(ConfigError, match=r"must be within \[0, 1\]"):
            validate_faults({"read": 1.5})

    def test_rate_wrong_type(self):
        with pytest.raises(ConfigError, match=r"must be within \[0, 1\]"):
            validate_faults({"read": "often"})

    @pytest.mark.parametrize("key", ["latency_ms", "read_penalty_ms"])
    def test_nonpositive_penalty(self, key):
        with pytest.raises(ConfigError, match=rf"faults.{key} must be > 0"):
            validate_faults({key: 0})

    def test_degrade_missing_key(self):
        with pytest.raises(ConfigError, match="faults.degrade is missing 'factor'"):
            validate_faults({"degrade": {"channel": 0, "start": 0.0,
                                         "seconds": 1.0}})

    def test_degrade_unknown_key(self):
        with pytest.raises(ConfigError, match="faults.degrade has unknown key"):
            validate_faults({"degrade": {"channel": 0, "start": 0.0,
                                         "seconds": 1.0, "factor": 2.0,
                                         "extra": 1}})

    def test_degrade_bad_factor(self):
        with pytest.raises(ConfigError, match="factor must be >= 1"):
            validate_faults({"degrade": {"channel": 0, "start": 0.0,
                                         "seconds": 1.0, "factor": 0.5}})

    def test_spec_validates_faults(self):
        with pytest.raises(ConfigError, match="unknown fault kind"):
            ExperimentSpec(faults={"bogus": 0.1})

    # A degrade window that can never fire used to run a healthy device
    # under the faulty spec (run_seconds unchanged); the spec refuses it
    # at construction, before any load.
    DEGRADE = {"channel": 0, "start": 0.0, "seconds": 100.0, "factor": 50.0}

    def test_spec_refuses_degrade_on_the_scalar_timeline(self):
        with pytest.raises(ConfigError, match="scalar device timing"):
            ExperimentSpec(engine="btree", capacity_bytes=24 << 20,
                           faults={"degrade": self.DEGRADE})

    def test_spec_refuses_degrade_on_a_missing_channel(self):
        spec = ExperimentSpec(engine="btree", capacity_bytes=24 << 20,
                              nclients=2, faults={"degrade": self.DEGRADE})
        channels = spec.shard_ssd().channels
        with pytest.raises(ConfigError, match=f"below the {channels} channels"):
            ExperimentSpec(engine="btree", capacity_bytes=24 << 20, nclients=2,
                           faults={"degrade": {**self.DEGRADE,
                                               "channel": channels}})

    def test_spec_negative_retry_limit(self):
        with pytest.raises(ConfigError, match="retry_limit must be >= 0"):
            ExperimentSpec(retry_limit=-1)

    def test_spec_negative_backoff(self):
        with pytest.raises(ConfigError, match="retry_backoff_ms must be >= 0"):
            ExperimentSpec(retry_backoff_ms=-0.5)

    def test_spec_nonpositive_timeout(self):
        with pytest.raises(ConfigError, match="op_timeout_ms must be positive"):
            ExperimentSpec(op_timeout_ms=0.0)

    def test_spec_kill_requires_arrival(self):
        with pytest.raises(ConfigError, match="kill_at requires an open-loop"):
            ExperimentSpec(kill_at=0.1, nshards=2)

    def test_spec_kill_shard_out_of_range(self):
        with pytest.raises(ConfigError, match=r"kill_shard must be in \[0, nshards\)"):
            ExperimentSpec(kill_at=0.1, kill_shard=2, nshards=2,
                           arrival="poisson", arrival_rate=1000.0)

    def test_spec_kill_shard_requires_kill_at(self):
        with pytest.raises(ConfigError, match="kill_shard requires kill_at"):
            ExperimentSpec(kill_shard=1, nshards=2,
                           arrival="poisson", arrival_rate=1000.0)

    def test_spec_nonpositive_kill_at(self):
        with pytest.raises(ConfigError, match="kill_at must be positive"):
            ExperimentSpec(kill_at=0.0, nshards=2,
                           arrival="poisson", arrival_rate=1000.0)


class TestFaultPlanDevice:
    """Injection against a real SSD instance."""

    def test_no_faults_singleton_is_off(self):
        assert NO_FAULTS.enabled is False
        assert NO_FAULTS.degrade is None
        # Hot paths check ``enabled`` first; nothing past it is callable.
        for name in ("on_write", "on_read"):
            with pytest.raises(AttributeError):
                getattr(NO_FAULTS, name)

    def test_program_fault_raises_and_counts(self):
        ssd, _clock = make_ssd()
        ssd.faults = make_plan({"program": 1.0})
        with pytest.raises(ProgramFaultError):
            ssd.write_runs([0], [4])
        assert ssd.smart.program_failures == 1
        # Nothing was committed: the host request never reached the FTL.
        assert ssd.smart.host_write_requests == 0
        assert ssd.smart.host_bytes_written == 0

    def test_program_fault_is_transient(self):
        assert issubclass(ProgramFaultError, TransientDeviceError)

    def test_latency_fault_adds_write_latency(self):
        ssd, _clock = make_ssd()
        clean = ssd.write_runs([0], [4])
        ssd.faults = make_plan({"latency": 1.0, "latency_ms": 3.0})
        spiked = ssd.write_runs([4], [4])
        assert spiked >= clean + 3.0e-3 - 1e-12
        assert ssd.smart.latency_spikes == 1

    def test_read_fault_adds_penalty(self):
        ssd, _clock = make_ssd()
        ssd.write_runs([0], [4])
        clean = ssd.read_runs([0], [4])[0]
        ssd.faults = make_plan({"read": 1.0, "read_penalty_ms": 2.0})
        slow = ssd.read_runs([0], [4])[0]
        assert slow == pytest.approx(clean + 2.0e-3)
        assert ssd.smart.media_errors == 1

    def test_bad_block_retires_and_invariants_hold(self):
        # Control: the same write without faults, to isolate the one
        # block the injection retires from blocks the write opens.
        control, _ = make_ssd()
        control.write_runs([0], [4])
        ssd, _clock = make_ssd()
        ssd.faults = make_plan({"bad_block": 1.0})
        ssd.write_runs([0], [4])
        assert ssd.smart.realloc_blocks == 1
        assert ssd.ftl.free_blocks == control.ftl.free_blocks - 1
        ssd.ftl.check_invariants()

    def test_bad_block_retirement_respects_gc_floor(self):
        ssd, _clock = make_ssd()
        ssd.faults = make_plan({"bad_block": 1.0})
        # Hammer writes: retirement must stop at the GC high watermark
        # margin instead of wedging the collector.
        for i in range(200):
            ssd.write_runs([(i * 4) % 128], [4])
        assert ssd.ftl.free_blocks > 0
        ssd.ftl.check_invariants()

    def test_fixed_seed_reproduces_byte_identically(self):
        outcomes = []
        for _ in range(2):
            ssd, clock = make_ssd()
            ssd.faults = make_plan({"read": 0.3, "latency": 0.2,
                                    "program": 0.05}, seed=42)
            latencies = []
            for i in range(50):
                try:
                    latencies.append(ssd.write_runs([(i * 4) % 64], [4]))
                except ProgramFaultError:
                    latencies.append(-1.0)
                latencies.append(ssd.read_runs([0], [4])[0])
            outcomes.append((latencies, ssd.smart.as_dict()))
        assert outcomes[0] == outcomes[1]

    def test_fault_stream_independent_of_workload_streams(self):
        # The "faults" substream must not alias the workload's.
        a = rng_mod.substream(7, "faults").random(8).tolist()
        b = rng_mod.substream(7, "workload-ops").random(8).tolist()
        assert a != b


class TestDegradeWindow:
    def test_scales_only_inside_window_on_channel(self):
        win = DegradeWindow(channel=2, start=1.0, seconds=2.0, factor=4.0)
        assert win.scaled(2, 1.5, 0.1) == pytest.approx(0.4)
        assert win.scaled(2, 0.5, 0.1) == pytest.approx(0.1)  # before
        assert win.scaled(2, 3.0, 0.1) == pytest.approx(0.1)  # after
        assert win.scaled(1, 1.5, 0.1) == pytest.approx(0.1)  # other channel

    def test_degraded_channel_slows_channelized_reads(self):
        ssd, _clock = make_ssd()
        ssd.enable_channel_timing()
        ssd.write_runs([0], [8])
        clean = ssd.read_runs([0], [8])[0]
        ssd.faults = make_plan({"degrade": {"channel": 0, "start": 0.0,
                                            "seconds": 1e9, "factor": 8.0}})
        degraded = ssd.read_runs([0], [8])[0]
        assert degraded > clean


class TestRetryPolicy:
    def test_success_passes_through(self):
        policy = RetryPolicy(3, 0.001)
        assert policy.run(lambda: 0.5) == 0.5

    def test_retries_accumulate_backoff(self):
        policy = RetryPolicy(3, 0.001)
        calls = []

        def flaky():
            calls.append(True)
            if len(calls) < 3:
                raise ProgramFaultError("injected")
            return 1.0

        # Two failures: penalty = 1ms * (2**0 + 2**1) = 3ms.
        assert policy.run(flaky) == pytest.approx(1.0 + 0.003)
        assert len(calls) == 3

    def test_exhaustion_reraises(self):
        policy = RetryPolicy(2, 0.001)

        def always_fails():
            raise ProgramFaultError("injected")

        with pytest.raises(ProgramFaultError):
            policy.run(always_fails)

    def test_zero_limit_never_retries(self):
        policy = RetryPolicy(0, 0.001)
        calls = []

        def fails():
            calls.append(True)
            raise ProgramFaultError("injected")

        with pytest.raises(ProgramFaultError):
            policy.run(fails)
        assert len(calls) == 1

    def test_filesystem_writes_survive_transient_faults(self):
        clock = VirtualClock()
        ssd = SSD(make_tiny_config(nblocks=64), clock)
        fs = ExtentFilesystem(BlockDevice(ssd))
        fs.device.retry = RetryPolicy(8, 0.0005)
        # Rate 0.5: most multi-page files hit at least one program
        # fault; the retry wrap must absorb every one of them.
        ssd.faults = make_plan({"program": 0.5}, seed=3)
        fs.create("f")
        total = 0.0
        for _ in range(20):
            total += fs.append("f", 4096)
        assert ssd.smart.program_failures > 0
        assert total > 0.0
