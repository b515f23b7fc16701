"""The simulated SSD device: FTL + controller cache + timing + SMART.

Timing model
============

The device is modeled as a flash back end with a write-back cache in
front of it, which is the architecture the paper appeals to when
explaining the SSD2 results (§4.7):

* every write is programmed by the FTL immediately (bookkeeping), but
  its *flash time* — programs for host data, programs for GC
  relocations, and erases — is queued on a busy horizon;
* a host write completes once its bytes are transferred and the
  outstanding flash work fits inside the controller cache.  While the
  backlog fits in the cache the host only observes the (low) cache
  insertion latency; once the backlog exceeds the cache the host
  stalls until the flash catches up.  Large bursty writes therefore
  overwhelm small-cache devices exactly as described for RocksDB on
  SSD2;
* reads observe a service floor and wait for queued work.

Garbage collection inflates the queued flash time (relocated pages are
real programs), so a rising WA-D directly reduces the drain rate — the
causal chain behind Figures 2, 3, 5 and 7 of the paper.

Background writes (flushes, compactions, checkpoints — work the engines
run inside an op but off its latency) extend the busy horizon without
blocking the caller.  The next foreground write pays for them once
the backlog no longer fits the cache: that wait is what binds a
write-heavy engine to device bandwidth.  The LSM's write-stall rule
reads the same backlog and slows writers further only past its soft
limit.

Two timelines, one interface (DESIGN.md §4.2)
=============================================

The horizon lives in a *timeline*, and an ``SSD`` holds one:
:class:`ScalarTimeline`, the queue-depth-1 model (one horizon, internal
parallelism folded into ``/ channels``, reads charged a penalty
proportional to the write backlog), or :class:`ChannelTimeline`, one
FIFO server per channel (Roh et al.), where contention *emerges* from
the queues.  They answer the same calls, so the SSD never asks which
one runs; :meth:`SSD.enable_channel_timing` swaps the scalar one for a
channel one, once.  Nothing outside this module names either class.
"""

from __future__ import annotations

from repro.core.clock import VirtualClock
from repro.errors import DeviceError, OutOfRangeError
from repro.faults.plan import NO_FAULTS
from repro.flash.config import SSDConfig
from repro.flash.ftl import FlashTranslationLayer, WorkUnits, run_pages
from repro.flash.gc import GCPolicy
from repro.flash.smart import SmartAttributes
from repro.obs.tracer import NULL_TRACER

#: Bounds the rounding of a mean of at most 2**10 positive parts above
#: their maximum ((1 + 2**-53)**(2**10) < 1 + 2**-42).
_ROUNDING_SLACK = 1.0 + 2.0**-40


class _Timeline:
    """Where a device's queued flash work lives; the interface both
    timing models answer, every query at a virtual time *now*.

    * ``write(work, fold, now, done, degrade)`` queues one write's flash
      work (``fold``: the SLC fold multiplier; ``degrade``: the fault
      plan's degraded-channel window or None) and returns its host
      latency: the later of *done* — transfer plus cache insertion —
      and the moment the backlog past it fits the cache window.  A
      background write (*done* None) returns 0.0.
    * ``read(start, npages, now, degrade)`` times one read;
      ``read_many(starts, lens, now)`` a batch issued at one instant;
      ``ideal_read(npages)`` is a read's latency on an idle device (the
      tracer's service share; the rest is queueing).
    * ``backlog(now)`` is the seconds of queued *write* work,
      ``backlog_exceeds(now, threshold)`` the SLC fold trigger and
      ``write_horizon()`` the time from which the backlog is an exact
      0.0; ``drain_wait(now)`` is the wait until idle and ``reset(now)``
      idles the device.

    Queued seconds drain ``lanes`` at a time, and a write's flash time
    is divided by ``lane_share`` before it queues (the tracer's GC
    share reads both).
    """

    def __init__(self, config: SSDConfig):
        self._program_time = config.program_time
        self._erase_time = config.erase_time
        self._window = config.cache_drain_window
        self._page_size = config.page_size
        self._bus = config.bus_bytes_per_s
        self._read_latency = config.read_latency
        self._page_read_time = config.page_read_time

    def trace_occupancy(self, tracer, now: float) -> None:
        """Emit the timeline's own trace counters (none by default)."""


class ScalarTimeline(_Timeline):
    """One busy horizon, adequate while one request is outstanding.

    ``busy_until`` is both the FIFO occupancy and the write-cache drain
    horizon; reads do not move it but pay a penalty proportional to
    the backlog they find: ``READ_CONTENTION`` times the service time
    at ``READ_CONTENTION_WINDOW`` seconds of backlog and beyond, in
    proportion below it.
    """

    lanes = 1
    READ_CONTENTION = 2.0  # extra read service per unit of saturation
    READ_CONTENTION_WINDOW = 0.050  # seconds of backlog that saturate

    def __init__(self, config: SSDConfig):
        super().__init__(config)
        self.busy_until = 0.0
        self.lane_share = config.channels

    def write_horizon(self) -> float:
        return self.busy_until

    def backlog(self, now: float) -> float:
        backlog = self.busy_until - now
        return backlog if backlog > 0.0 else 0.0

    drain_wait = backlog

    def backlog_exceeds(self, now: float, threshold: float) -> bool:
        return self.busy_until - now > threshold

    def reset(self, now: float) -> None:
        self.busy_until = now

    def write(self, work: WorkUnits, fold: float, now: float,
              done: float | None, degrade) -> float:
        flash_time = (
            (work.host_pages + work.gc_pages) * self._program_time
            + work.erases * self._erase_time
        ) / self.lane_share * fold
        busy_until = self.busy_until
        if now > busy_until:
            busy_until = now
        busy_until += flash_time
        self.busy_until = busy_until
        if done is None:
            return 0.0
        cached = busy_until - self._window
        if cached > done:
            done = cached
        return done - now

    def read(self, start: int, npages: int, now: float, degrade) -> float:
        latency = self.ideal_read(npages)
        backlog = self.busy_until - now
        if backlog > 0:
            saturation = min(1.0, backlog / self.READ_CONTENTION_WINDOW)
            latency *= 1.0 + self.READ_CONTENTION * saturation
        return latency

    def read_many(self, starts, lens, now: float) -> list[float]:
        """Nothing a latency depends on moves inside the batch, so each
        distinct length is computed once."""
        by_length: dict[int, float] = {}
        latencies = []
        for npages in lens:
            if npages <= 0:
                latencies.append(0.0)
                continue
            latency = by_length.get(npages)
            if latency is None:
                latency = by_length[npages] = self.read(0, npages, now, None)
            latencies.append(latency)
        return latencies

    def ideal_read(self, npages: int) -> float:
        return (self._read_latency
                + npages * self._page_read_time / self.lane_share
                + npages * self._page_size / self._bus)


class ChannelTimeline(_Timeline):
    """Per-channel busy horizons: the device as a set of FIFO servers.

    Each channel serves its queued flash work in arrival order; the
    striping cursor rotates so that consecutive small writes land on
    different channels, like an interleaving controller.

    Two horizons are kept per channel.  ``busy`` is the FIFO occupancy
    — program, erase *and* read service time — and is what later
    requests on the same channel queue behind.  ``write_busy`` counts
    only program/erase work: it is the controller *write-cache* drain
    horizon behind host write completion, the SLC fold trigger and
    engine stalls.  Reads hold no data in the write cache, so they never
    appear in the write backlog.

    ``write_max`` / ``busy_max`` are the exact maxima of the two vectors
    (work only ever extends a horizon, so one ``max`` per mutation
    maintains them) and make the common queries O(1) (DESIGN.md §8);
    the fast paths only skip work whose outcome is provably exact.
    """

    lane_share = 1

    def __init__(self, config: SSDConfig, start: float = 0.0):
        super().__init__(config)
        self.lanes = nchannels = config.channels
        self.busy = [float(start)] * nchannels
        self.write_busy = [float(start)] * nchannels
        self.cursor = 0
        self.write_max = float(start)  # == max(write_busy), maintained
        self.busy_max = float(start)  # == max(busy), maintained

    def write_horizon(self) -> float:
        return self.write_max

    def backlog(self, now: float) -> float:
        """Mean seconds of queued write work per channel: the positive
        parts of the horizons summed in channel order, over the channel
        count."""
        if self.write_max <= now:
            return 0.0  # every term of the sum would be an exact 0.0
        total = 0.0
        for b in self.write_busy:
            d = b - now
            if d > 0.0:
                total += d
        return total / self.lanes

    def backlog_exceeds(self, now: float, threshold: float) -> bool:
        """Exact, with an O(1) reject: the mean positive part is at most
        the max one, so a ``write_max`` within *threshold* of *now*
        decides it (the fold trigger's common case).  The float sum can
        overshoot that bound by ``channels`` ulps, so the reject keeps
        a 2**-40 relative margin."""
        if (self.write_max - now) * _ROUNDING_SLACK <= threshold:
            return False
        return self.backlog(now) > threshold

    def drain_wait(self, now: float) -> float:
        """Until the most-loaded channel goes idle (any work)."""
        return max(0.0, self.busy_max - now)

    def reset(self, now: float) -> None:
        self.busy = [now] * self.lanes
        self.write_busy = [now] * self.lanes
        self.write_max = now
        self.busy_max = now

    def write(self, work: WorkUnits, fold: float, now: float,
              done: float | None, degrade) -> float:
        """Pages go round-robin from the cursor: the first ``pages % C``
        lanes get ``pages // C + 1``, the rest ``pages // C``; erases land
        on the cursor channel.  The cursor advances by ``pages % C`` (by
        one when ``C`` divides ``pages``) and by one per erase.  Work
        queues behind ``max(horizon, now)`` on *both* horizons.  The
        hottest edge: plain locals, two precomputed lane costs, lanes
        wrapped by subtraction.  Admission skips the sum within the
        cache window: the mean is at most ``write_max - now`` (+ <= 16
        ulps, dwarfed by the transfer time inside *done*)."""
        busy = self.busy
        write_busy = self.write_busy
        busy_max = self.busy_max
        write_max = self.write_max
        nchannels = self.lanes
        cursor = self.cursor
        pages = work.host_pages + work.gc_pages
        if pages:
            base, extra = divmod(pages, nchannels)
            program_time = self._program_time
            more = (base + 1) * program_time * fold
            less = base * program_time * fold
            for i in range(pages if pages < nchannels else nchannels):
                c = cursor + i
                if c >= nchannels:
                    c -= nchannels
                seconds = more if i < extra else less
                if degrade is not None:
                    seconds = degrade.scaled(c, now, seconds)
                b = busy[c]
                if now > b:
                    b = now
                b += seconds
                busy[c] = b
                if b > busy_max:
                    busy_max = b
                w = write_busy[c]
                if now > w:
                    w = now
                w += seconds
                write_busy[c] = w
                if w > write_max:
                    write_max = w
            cursor = (cursor + (extra or 1)) % nchannels
        if work.erases:
            c = cursor
            seconds = work.erases * self._erase_time * fold
            if degrade is not None:
                seconds = degrade.scaled(c, now, seconds)
            b = busy[c]
            if now > b:
                b = now
            b += seconds
            busy[c] = b
            if b > busy_max:
                busy_max = b
            w = write_busy[c]
            if now > w:
                w = now
            w += seconds
            write_busy[c] = w
            if w > write_max:
                write_max = w
            cursor = (cursor + 1) % nchannels
        self.cursor = cursor
        self.busy_max = busy_max
        self.write_max = write_max
        if done is None:
            return 0.0
        window = self._window
        if write_max - now > window:
            done = max(done, now + self.backlog(now) - window)
        return done - now

    def read(self, start: int, npages: int, now: float, degrade) -> float:
        """Page *start + i* is served by channel ``(start + i) %
        channels`` (the static striping of a consecutive LBA range) and
        the read completes with its slowest channel.  At most 8 or 16
        lanes: one plain pass (DESIGN.md §13.3).  Only ``busy`` moves;
        ``busy_max`` takes the completion once."""
        busy = self.busy
        nchannels = self.lanes
        base, extra = divmod(npages, nchannels)
        first = start % nchannels
        page_read_time = self._page_read_time
        more = (base + 1) * page_read_time
        less = base * page_read_time
        completion = now
        for i in range(npages if npages < nchannels else nchannels):
            c = first + i
            if c >= nchannels:
                c -= nchannels
            done = busy[c]
            if now > done:
                done = now
            seconds = more if i < extra else less
            if degrade is not None:
                seconds = degrade.scaled(c, now, seconds)
            done += seconds
            busy[c] = done
            if done > completion:
                completion = done
        if completion > self.busy_max:
            self.busy_max = completion
        return (self._read_latency + npages * self._page_size / self._bus
                + (completion - now))

    def read_many(self, starts, lens, now: float) -> list[float]:
        """One request after another: each queues behind the last."""
        read = self.read
        return [read(start, npages, now, None) if npages > 0 else 0.0
                for start, npages in zip(starts, lens)]

    def ideal_read(self, npages: int) -> float:
        return (self._read_latency + npages * self._page_size / self._bus
                + (-(-npages // self.lanes)) * self._page_read_time)

    def trace_occupancy(self, tracer, now: float) -> None:
        """The write backlog beside the busiest channel's horizon."""
        tracer.counter("channel_occupancy", {
            "write_backlog_s": self.backlog(now),
            "busy_max_s": max(0.0, self.busy_max - now),
        })


class SSD:
    """A simulated SSD with SMART counters and a virtual-time cost model."""

    def __init__(
        self,
        config: SSDConfig,
        clock: VirtualClock,
        policy: GCPolicy | None = None,
    ):
        self.config = config
        self.clock = clock
        self.smart = SmartAttributes()
        # Hot-path caches of config properties/fields (the config is
        # frozen, so these can never go stale).
        self._npages = config.logical_pages
        self._page_size = config.page_size
        self._bus_bytes_per_s = config.bus_bytes_per_s
        self._host_write_latency = config.write_latency
        self._fold_penalty = config.fold_penalty
        self._fold_threshold = 1.25 * config.cache_drain_window
        self.ftl = (None if config.byte_addressable
                    else FlashTranslationLayer(config, policy))
        self._timeline = ScalarTimeline(config)
        self.tracer = NULL_TRACER
        self.faults = NO_FAULTS  # fault injection (repro.faults)
        # Tracing-only observation of the outstanding flash work split
        # into [gc seconds, total seconds, last update time]; touched
        # only while the tracer is enabled (DESIGN.md §9.2).
        self._gc_obs = [0.0, 0.0, 0.0]

    # ------------------------------------------------------------------
    # Geometry passthrough (device-protocol surface used by upper layers)
    # ------------------------------------------------------------------
    @property
    def page_size(self) -> int:
        """Bytes per logical page."""
        return self.config.page_size

    @property
    def npages(self) -> int:
        """Logical pages exposed to the host."""
        return self.config.logical_pages

    @property
    def capacity_bytes(self) -> int:
        """Nominal capacity in bytes."""
        return self.config.logical_bytes

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def write_runs(self, starts, lens, background: bool = False) -> float:
        """Write the disjoint logical runs ``(starts[i], lens[i])`` as one
        host request.

        Returns the host-visible latency in seconds; background writes
        return 0.0 but still queue flash work and count in SMART.
        """
        try:
            (start,), (npages,) = starts, lens  # one run: no array work
        except ValueError:
            npages = run_pages(starts, lens, self._npages)
        else:
            if npages < 0 or start < 0 or start + npages > self._npages:
                self._check(start, npages)
        if npages == 0:
            return 0.0
        faults = self.faults
        # Faults draw before the FTL touches any state: a program
        # failure raises with nothing committed, so the host re-drives
        # the identical request on retry.
        extra = faults.on_write(self) if faults.enabled else 0.0
        if self.ftl is not None:
            work = self.ftl.write_runs(starts, lens)
        else:
            work = WorkUnits(host_pages=npages)
        latency = self._account_write(npages, work, background)
        if extra:
            latency += extra
        return latency

    def read_range(self, start: int, npages: int) -> float:
        """One read request: the per-request body of :meth:`read_runs`,
        the read entry every layer above calls.  Returns its latency.
        (It keeps this public name because the perf ledger's probes time
        the SSD's reads by it.)"""
        if npages <= 0 or start < 0 or start + npages > self._npages:
            if npages == 0:
                return 0.0
            self._check(start, npages)
        nbytes = npages * self._page_size
        faults = self.faults
        latency = self._timeline.read(start, npages, self.clock.now,
                                      faults.degrade)
        smart = self.smart
        smart.host_bytes_read += nbytes
        smart.nand_bytes_read += nbytes
        smart.host_read_requests += 1
        tracer = self.tracer
        if tracer.enabled:
            queueing = latency - self._timeline.ideal_read(npages)
            if queueing < 0.0:
                queueing = 0.0
            device_service = latency - queueing
            if tracer.in_op:
                tracer.add("device_service", device_service)
                tracer.add("queueing", queueing)
            tracer.span("flash_read", "flash", self.clock.now, latency, {
                "pages": npages, "device_service": device_service,
                "queueing": queueing,
            })
        if faults.enabled:
            extra = faults.on_read(self)
            if extra:
                latency += extra
        return latency

    def read_runs(self, starts, lens) -> list[float]:
        """Read the logical runs ``(starts[i], lens[i])``, submitted at
        one instant, each its own host request; returns their
        host-visible latencies.  A run outside the logical space raises
        once the runs before it are served.

        The tracer and fault draws are per-request state, and one run
        needs no batch: those go request by request.  Otherwise the
        timeline times the batch in one call — nothing a latency
        depends on moves inside it — and the accounting is summed.
        """
        try:
            (start,), (npages,) = starts, lens  # one run: no batch
        except ValueError:
            pass
        else:
            return [self.read_range(start, npages)]
        if len(starts) != len(lens):
            raise DeviceError(f"{len(starts)} starts for {len(lens)} lengths")
        if self.tracer.enabled or self.faults.enabled:
            return [self.read_range(start, npages)
                    for start, npages in zip(starts, lens)]
        limit = self._npages
        pages = requests = 0
        for i, (start, npages) in enumerate(zip(starts, lens)):
            if npages:
                if npages < 0 or start < 0 or start + npages > limit:
                    # Like the loop: the requests before the bad one are served.
                    self.read_runs(starts[:i], lens[:i])
                    self._check(start, npages)
                pages += npages
                requests += 1
        latencies = self._timeline.read_many(starts, lens, self.clock.now)
        smart = self.smart
        smart.host_bytes_read += pages * self._page_size
        smart.nand_bytes_read += pages * self._page_size
        smart.host_read_requests += requests
        return latencies

    def trim_range(self, start: int, npages: int) -> None:
        """TRIM a consecutive logical range (invalidate its data)."""
        if npages == 0:
            return
        self._check(start, npages)
        if self.ftl is not None:
            self.ftl.trim_range(start, npages)
        self.smart.trim_commands += 1

    def trim_all(self) -> None:
        """TRIM the whole logical space (the ``blkdiscard`` analogue)."""
        self.trim_range(0, self.npages)

    # ------------------------------------------------------------------
    # Busy-horizon queries used by engines for stall decisions
    # ------------------------------------------------------------------
    def enable_channel_timing(self) -> None:
        """Switch to the per-channel service model (DESIGN.md §4.2),
        once: each channel starts at the scalar horizon, so the drain
        time carries over.  ``run_measured_phase`` calls it."""
        timeline = self._timeline
        if isinstance(timeline, ScalarTimeline):
            start = max(timeline.write_horizon(), self.clock.now)
            self._timeline = ChannelTimeline(self.config, start)

    @property
    def write_horizon(self) -> float:
        """Absolute time from which :meth:`backlog_seconds` is an exact
        0.0.  It moves only when the device queues a write, so engine
        batch paths read it once per run of writes (DESIGN.md §6.3)."""
        return self._timeline.write_horizon()

    def backlog_seconds(self, at: float | None = None) -> float:
        """Seconds of queued *write* work not yet completed at time *at*
        (default now) — under channel timing the mean per-channel
        program/erase backlog, the write cache's drain horizon.  Reads
        hold nothing in the write cache and never count."""
        return self._timeline.backlog(self.clock.now if at is None else at)

    def drain(self) -> float:
        """Advance the clock until the device is idle; returns the wait."""
        wait = self._timeline.drain_wait(self.clock.now)
        if wait > 0:
            self.clock.advance(wait)
        return wait

    def settle(self) -> None:
        """Discard any queued work time (device considered idle *now*).

        Used between experiment phases (e.g. after preconditioning) to
        model the idle gap before the measured run starts.
        """
        self._timeline.reset(self.clock.now)

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def device_write_amplification(self) -> float:
        """Lifetime WA-D from SMART counters."""
        return self.smart.device_write_amplification()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check(self, start: int, npages: int) -> None:
        if npages < 0 or start < 0 or start + npages > self._npages:
            raise OutOfRangeError(
                f"range [{start}, {start + npages}) outside logical space "
                f"of {self._npages} pages"
            )

    def _account_write(self, npages: int, work: WorkUnits, background: bool) -> float:
        smart = self.smart
        page_size = self._page_size
        nbytes = npages * page_size
        smart.host_bytes_written += nbytes
        smart.host_write_requests += 1
        if work.gc_pages or work.erases:
            gc_bytes = work.gc_pages * page_size
            smart.nand_bytes_written += (work.host_pages + work.gc_pages) * page_size
            smart.gc_bytes_relocated += gc_bytes
            smart.nand_bytes_read += gc_bytes
            smart.blocks_erased += work.erases
            # GC-attributable counters (§3.3 SMART deltas, refined):
            # every reclaim erases exactly one victim, and every moved
            # page is one flash read plus one program.
            smart.gc_reclaims += work.erases
            smart.gc_pages_moved += work.gc_pages
            smart.gc_flash_reads += work.gc_pages
        else:
            smart.nand_bytes_written += work.host_pages * page_size

        now = self.clock.now
        timeline = self._timeline
        fold = 1.0
        # The SLC cache is overwhelmed: folding into QLC multiplies the
        # effective cost of the incoming writes (§4.7's "large bursty
        # writes overwhelm the cache").  Synchronous writers self-clock
        # at the cache window and never reach this threshold; bursty
        # background writers (LSM flushes and compactions) push far
        # past it and pay the folding cost.
        if (self._fold_penalty > 1.0
                and timeline.backlog_exceeds(now, self._fold_threshold)):
            fold = self._fold_penalty
            smart.fold_events += 1
        done = None if background else (
            now + nbytes / self._bus_bytes_per_s + self._host_write_latency)
        latency = timeline.write(work, fold, now, done, self.faults.degrade)
        tracer = self.tracer
        if tracer.enabled:
            self._trace_write(tracer, npages, nbytes, work, fold,
                              background, latency, now)
        return latency

    def _trace_write(self, tracer, npages, nbytes, work, fold, background,
                     latency, now) -> None:
        """Observe one device write for the flight recorder.

        Tracing only — reads model state, never writes it, so enabling
        the tracer cannot change a simulated result.  The GC share of
        the outstanding flash work is tracked in ``_gc_obs`` as a
        (gc seconds, total seconds) pair in the timeline's lane
        seconds, drained proportionally at its service rate; a
        foreground write's queueing time is split into ``gc_wait`` by
        the share at admission.
        """
        timeline = self._timeline
        obs = self._gc_obs
        gc_out, total_out, last_t = obs
        drained = (now - last_t) * timeline.lanes
        if total_out > 0.0 and drained > 0.0:
            if drained >= total_out:
                gc_out = 0.0
                total_out = 0.0
            else:
                gc_out -= drained * gc_out / total_out
                total_out -= drained
        cfg = self.config
        flash_seconds = (work.programmed_pages * cfg.program_time
                         + work.erases * cfg.erase_time) * fold / timeline.lane_share
        gc_seconds = (work.gc_pages * cfg.program_time
                      + work.erases * cfg.erase_time) * fold / timeline.lane_share
        total_out += flash_seconds
        gc_out += gc_seconds
        obs[0] = gc_out
        obs[1] = total_out
        obs[2] = now
        if background:
            tracer.instant("flash_write_bg", "flash", {
                "pages": npages, "gc_pages": work.gc_pages,
                "erases": work.erases,
            })
        else:
            device_service = (nbytes / self._bus_bytes_per_s
                              + self._host_write_latency)
            queueing = latency - device_service
            if queueing < 0.0:
                queueing = 0.0
            gc_wait = queueing * (gc_out / total_out) if total_out > 0.0 else 0.0
            queueing -= gc_wait
            if tracer.in_op:
                tracer.add("device_service", device_service)
                tracer.add("queueing", queueing)
                tracer.add("gc_wait", gc_wait)
            tracer.span("flash_write", "flash", now, latency, {
                "pages": npages, "gc_pages": work.gc_pages,
                "erases": work.erases, "device_service": device_service,
                "queueing": queueing, "gc_wait": gc_wait,
            })
        timeline.trace_occupancy(tracer, now)
