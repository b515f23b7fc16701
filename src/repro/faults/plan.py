"""Deterministic device-fault injection (DESIGN.md §11).

A :class:`FaultPlan` draws faults from its own RNG substream off the
experiment seed (label ``"faults"``), so a fault-injected spec is as
reproducible as a healthy one and the fault stream never perturbs the
workload or arrival streams.  The SSD consults ``ssd.faults`` at every
host read/write; the default is the :data:`NO_FAULTS` singleton whose
class-level ``enabled = False`` lets hot paths skip injection with one
hoisted attribute check — with no plan configured every sim
fingerprint stays byte-identical to the fault-free build.

Fault kinds (all optional keys of the ``faults`` spec dict):

``read``
    Per host-read probability of a transient media error.  The read
    still succeeds — the controller's ECC retry recovers it — but the
    request pays ``read_penalty_ms`` and SMART ``media_errors`` grows.
``program``
    Per host-write probability that the program operation fails before
    any page is committed.  Raises
    :class:`~repro.errors.ProgramFaultError` (a transient error) for
    the engine's retry loop; SMART ``program_failures`` grows.
``latency``
    Per-IO probability of a long-tail service delay of ``latency_ms``
    (default 2.0 ms); SMART ``latency_spikes`` grows.
``bad_block``
    Per host-write probability that a free block is discovered
    grown-bad and retired from the FTL's pool (shrinking the
    over-provisioned spare capacity GC depends on); SMART
    ``realloc_blocks`` grows.  Retirement stops — silently — once the
    pool is down to the GC high watermark plus a margin.
``degrade``
    A dict ``{"channel", "start", "seconds", "factor"}``: during the
    window ``[start, start + seconds)`` on the virtual clock, flash
    service on the given channel runs ``factor`` times slower.  Only
    the channel timeline has channels, so ``ExperimentSpec`` refuses
    the window on a one-client closed loop (scalar timing) and on a
    channel the profile does not have.
"""

from __future__ import annotations

from repro.errors import ConfigError, ProgramFaultError

#: Recognized keys of a ``faults`` spec dict.
FAULT_KINDS = (
    "read",
    "program",
    "latency",
    "latency_ms",
    "read_penalty_ms",
    "bad_block",
    "degrade",
)
_RATE_KINDS = ("read", "program", "latency", "bad_block")
_DEGRADE_KEYS = ("channel", "start", "seconds", "factor")


def validate_faults(faults: object) -> None:
    """Fail fast (``ConfigError``) on a malformed ``faults`` dict."""
    if not isinstance(faults, dict):
        raise ConfigError(
            f"faults must be a dict of fault kinds, got {type(faults).__name__}"
        )
    for key in faults:
        if key not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {key!r} (expected one of "
                f"{', '.join(FAULT_KINDS)})"
            )
    for key in _RATE_KINDS:
        if key in faults:
            rate = faults[key]
            if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
                raise ConfigError(
                    f"fault rate {key!r} must be within [0, 1], got {rate!r}"
                )
    for key in ("latency_ms", "read_penalty_ms"):
        if key in faults:
            value = faults[key]
            if not isinstance(value, (int, float)) or value <= 0:
                raise ConfigError(f"faults.{key} must be > 0, got {value!r}")
    if "degrade" in faults:
        degrade = faults["degrade"]
        if not isinstance(degrade, dict):
            raise ConfigError("faults.degrade must be a dict with keys "
                              + ", ".join(_DEGRADE_KEYS))
        for key in _DEGRADE_KEYS:
            if key not in degrade:
                raise ConfigError(f"faults.degrade is missing {key!r}")
        for key in degrade:
            if key not in _DEGRADE_KEYS:
                raise ConfigError(f"faults.degrade has unknown key {key!r}")
        channel = degrade["channel"]
        if not isinstance(channel, int) or channel < 0:
            raise ConfigError(
                f"faults.degrade.channel must be an int >= 0, got {channel!r}")
        if degrade["start"] < 0:
            raise ConfigError("faults.degrade.start must be >= 0")
        if degrade["seconds"] <= 0:
            raise ConfigError("faults.degrade.seconds must be > 0")
        if degrade["factor"] < 1.0:
            raise ConfigError("faults.degrade.factor must be >= 1")


class DegradeWindow:
    """A per-channel slowdown window on the virtual clock."""

    __slots__ = ("channel", "start", "end", "factor")

    def __init__(self, channel: int, start: float, seconds: float,
                 factor: float):
        self.channel = channel
        self.start = float(start)
        self.end = float(start) + float(seconds)
        self.factor = float(factor)

    def scaled(self, channel: int, now: float, seconds: float) -> float:
        """Service time for *seconds* of work on *channel* at *now*."""
        if channel == self.channel and self.start <= now < self.end:
            return seconds * self.factor
        return seconds


class FaultPlan:
    """Active fault injection for one device (see module docstring)."""

    enabled = True

    __slots__ = ("rng", "read_rate", "program_rate", "latency_rate",
                 "latency_s", "read_penalty_s", "bad_block_rate", "degrade")

    def __init__(self, faults: dict, rng):
        validate_faults(faults)
        self.rng = rng
        self.read_rate = float(faults.get("read", 0.0))
        self.program_rate = float(faults.get("program", 0.0))
        self.latency_rate = float(faults.get("latency", 0.0))
        self.latency_s = float(faults.get("latency_ms", 2.0)) / 1e3
        self.read_penalty_s = float(faults.get("read_penalty_ms", 0.5)) / 1e3
        self.bad_block_rate = float(faults.get("bad_block", 0.0))
        degrade = faults.get("degrade")
        self.degrade = (
            DegradeWindow(degrade["channel"], degrade["start"],
                          degrade["seconds"], degrade["factor"])
            if degrade else None
        )

    def on_write(self, ssd) -> float:
        """Draw this host write's faults; returns extra latency seconds.

        Must run *before* the FTL mutates any state: a program failure
        raises :class:`ProgramFaultError` and the host re-drives the
        whole request, so nothing may have been committed.  Each
        configured kind consumes exactly one draw per call, so a
        retried request re-draws — a retry can fail again.
        """
        rng = self.rng
        tracer = ssd.tracer
        if self.program_rate and rng.random() < self.program_rate:
            ssd.smart.program_failures += 1
            if tracer.enabled:
                tracer.instant("fault_program", "fault", {})
            raise ProgramFaultError("injected flash program failure")
        if self.bad_block_rate and rng.random() < self.bad_block_rate:
            ftl = ssd.ftl
            if ftl is not None and ftl.retire_free_block():
                ssd.smart.realloc_blocks += 1
                if tracer.enabled:
                    tracer.instant("fault_bad_block", "fault",
                                   {"free_blocks": ftl.free_blocks})
        if self.latency_rate and rng.random() < self.latency_rate:
            ssd.smart.latency_spikes += 1
            if tracer.enabled:
                tracer.instant("fault_latency", "fault",
                               {"seconds": self.latency_s})
            return self.latency_s
        return 0.0

    def on_read(self, ssd) -> float:
        """Draw this host read's faults; returns extra latency seconds.

        Reads never raise: a media error is recovered by the
        controller's ECC retry at a latency penalty.
        """
        rng = self.rng
        extra = 0.0
        if self.read_rate and rng.random() < self.read_rate:
            ssd.smart.media_errors += 1
            extra += self.read_penalty_s
            if ssd.tracer.enabled:
                ssd.tracer.instant("fault_read", "fault",
                                   {"penalty": self.read_penalty_s})
        if self.latency_rate and rng.random() < self.latency_rate:
            ssd.smart.latency_spikes += 1
            extra += self.latency_s
            if ssd.tracer.enabled:
                ssd.tracer.instant("fault_latency", "fault",
                                   {"seconds": self.latency_s})
        return extra


class _NoFaults:
    """Injection disabled: the ``ssd.faults`` default.

    ``enabled`` is a class attribute, so hot paths pay one attribute
    load + truth test; it has no methods, so a call past that guard
    raises ``AttributeError``.
    """

    enabled = False
    degrade = None


NO_FAULTS = _NoFaults()
