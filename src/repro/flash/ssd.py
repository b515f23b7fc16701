"""The simulated SSD device: FTL + controller cache + timing + SMART.

Timing model
============

The device is modeled as a flash back end with a write-back cache in
front of it, which is the architecture the paper appeals to when
explaining the SSD2 results (§4.7):

* every write is programmed by the FTL immediately (bookkeeping), but
  its *flash time* — programs for host data, programs for GC
  relocations, and erases, divided by the internal parallelism — is
  queued on a busy horizon ``busy_until``;
* a host write completes once its bytes are transferred and the
  outstanding flash work fits inside the controller cache.  While the
  backlog fits in the cache the host only observes the (low) cache
  insertion latency; once the backlog exceeds the cache the host
  stalls until the flash catches up.  Large bursty writes therefore
  overwhelm small-cache devices exactly as described for RocksDB on
  SSD2;
* reads observe a latency floor plus a contention penalty proportional
  to the current write backlog.

Garbage collection inflates the queued flash time (relocated pages are
real programs), so a rising WA-D directly reduces the drain rate — the
causal chain behind Figures 2, 3, 5 and 7 of the paper.

Background writes (flushes, compactions, checkpoints — work the engines
perform off the user thread) extend the busy horizon without blocking
the caller; engines translate backlog into write stalls themselves,
like RocksDB's slowdown/stop conditions do.

Channel-parallel timing (DESIGN.md §4.3)
========================================

The single-threaded model above folds the device's internal parallelism
into scalar division (``/ channels``) plus a scalar read-contention
penalty — adequate when only one operation is ever outstanding.  Under
the discrete-event subsystem many clients keep multiple requests in
flight, and queue depth interacts with channel-level parallelism (Roh
et al.): reads on *different* channels overlap while reads on the
*same* channel — or behind queued program/erase work — wait their turn.
:meth:`SSD.enable_channel_timing` switches the device to a per-channel
service model: every channel keeps its own busy horizon, program and
erase work is striped page-wise round-robin, and a read's latency is
the completion time of its slowest channel.  The scalar read-contention
multiplier is then retired — contention *emerges* from the queues.  The
scalar path is untouched, so single-client runs remain bit-identical to
the seed model.
"""

from __future__ import annotations

import numpy as np

from repro.core.clock import VirtualClock
from repro.errors import OutOfRangeError
from repro.faults.plan import NO_FAULTS
from repro.flash.config import SSDConfig
from repro.flash.ftl import FlashTranslationLayer, WorkUnits
from repro.flash.gc import GCPolicy
from repro.flash.smart import SmartAttributes
from repro.obs.tracer import NULL_TRACER


def mean_write_backlog(write_busy: list, now: float) -> float:
    """Mean seconds of queued write work per channel at time *now*.

    The positive parts of the per-channel horizons are accumulated in
    channel order (drained channels contribute an exact ``0.0`` and are
    skipped), then divided by the channel count.  This is **the** one
    definition of the write backlog: :meth:`ChannelTimeline.backlog`
    and the engines' stall-replay loops (``lsm/store.py``) all call it,
    so the device model and the engine heuristics cannot drift by one
    float ulp.
    """
    total = 0.0
    for b in write_busy:
        d = b - now
        if d > 0.0:
            total += d
    return total / len(write_busy)


class ChannelTimeline:
    """Per-channel busy horizons: the device as a set of FIFO servers.

    Each channel serves its queued flash work in arrival order; the
    striping cursor rotates so that consecutive small writes land on
    different channels, like an interleaving controller.

    Two horizons are kept per channel.  ``busy`` is the FIFO occupancy
    — program, erase *and* read service time — and is what later
    requests on the same channel queue behind.  ``write_busy`` counts
    only program/erase work: it is the controller *write-cache* drain
    horizon, the quantity behind host write completion, the SLC fold
    trigger, and engine stall heuristics.  Reads occupy channels but
    hold no data in the write cache, so they must never appear in the
    write backlog (a read-heavy workload would otherwise spuriously
    "overwhelm the write cache").

    Running aggregates (DESIGN.md §8) make the common per-op queries
    O(1): ``write_max`` / ``busy_max`` are the exact maxima of the two
    horizon vectors (work only ever extends a horizon, so a single
    ``max`` per mutation maintains them).  All query results are
    bit-identical to recomputing from the vectors — the fast paths
    only skip work whose outcome is provably an exact ``0.0``.
    """

    def __init__(self, nchannels: int, start: float = 0.0):
        self.busy = [float(start)] * nchannels
        self.write_busy = [float(start)] * nchannels
        self.cursor = 0
        self.write_max = float(start)  # == max(write_busy), maintained
        self.busy_max = float(start)  # == max(busy), maintained

    def backlog(self, now: float) -> float:
        """Mean seconds of queued *write* work per channel (the
        write-cache drain horizon)."""
        if self.write_max <= now:
            return 0.0  # every term of the sum would be an exact 0.0
        return mean_write_backlog(self.write_busy, now)

    def backlog_exceeds(self, now: float, threshold: float) -> bool:
        """Exact ``backlog(now) > threshold`` with an O(1) reject.

        The mean positive part is bounded by the max positive part, so
        a ``write_max`` within *threshold* of *now* decides the
        comparison without touching the vector (the SLC fold trigger's
        common case).
        """
        if self.write_max - now <= threshold:
            return False
        return self.backlog(now) > threshold

    def max_backlog(self, now: float) -> float:
        """Seconds until the most-loaded channel goes idle (any work)."""
        return max(0.0, self.busy_max - now)

    def reset(self, now: float) -> None:
        """Consider every channel idle as of *now*."""
        self.busy = [now] * len(self.busy)
        self.write_busy = [now] * len(self.write_busy)
        self.write_max = now
        self.busy_max = now


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
        self._program_time = config.program_time
        self._erase_time = config.erase_time
        self._nchannels = config.channels
        self._bus_bytes_per_s = config.bus_bytes_per_s
        self._host_write_latency = config.write_latency
        self._cache_drain_window = config.cache_drain_window
        self._fold_penalty = config.fold_penalty
        self._fold_threshold = 1.25 * config.cache_drain_window
        if config.byte_addressable:
            self.ftl = None
            self._mapped = np.zeros(config.logical_pages, dtype=bool)
        else:
            self.ftl = FlashTranslationLayer(config, policy)
            self._mapped = None
        self._busy_until = 0.0
        self._channels: ChannelTimeline | None = None
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
    def write_pages(self, lpns: np.ndarray, background: bool = False) -> float:
        """Write the given (unique) logical pages.

        Returns the host-visible latency in seconds; background writes
        return 0.0 but still queue flash work and count in SMART.
        """
        n = len(lpns)
        if n == 0:
            return 0.0
        faults = self.faults
        # Faults draw before the FTL touches any state: a program
        # failure raises with nothing committed, so the host re-drives
        # the identical request on retry.
        extra = faults.on_write(self) if faults.enabled else 0.0
        if self.ftl is not None:
            # The FTL validates the range itself and converts (or
            # copies) what it needs, so the array round-trip is
            # skipped here.
            work = self.ftl.write_pages(lpns)
        else:
            lpns = np.asarray(lpns, dtype=np.int64)
            self._mapped[lpns] = True
            work = WorkUnits(host_pages=n)
        latency = self._account_write(n, work, background)
        if extra:
            latency += extra
        return latency

    def write_range(self, start: int, npages: int, background: bool = False) -> float:
        """Write a consecutive logical range."""
        if npages <= 0:
            return 0.0
        if start < 0 or start + npages > self._npages:
            self._check(start, npages)
        faults = self.faults
        extra = faults.on_write(self) if faults.enabled else 0.0
        if self.ftl is not None:
            work = self.ftl.write_range(start, npages)
        else:
            self._mapped[start : start + npages] = True
            work = WorkUnits(host_pages=npages)
        latency = self._account_write(npages, work, background)
        if extra:
            latency += extra
        return latency

    def read_range(self, start: int, npages: int) -> float:
        """Read a consecutive logical range; returns host-visible latency."""
        if npages <= 0:
            return 0.0
        if start < 0 or start + npages > self._npages:
            self._check(start, npages)
        ftl = self.ftl
        if ftl is not None:
            # Reads never touch the mapping: the FTL's share is pure
            # accounting, bounds already checked against the same
            # logical space.
            ftl.total_read_pages += npages
        cfg = self.config
        nbytes = npages * self._page_size
        if self._channels is not None:
            latency = self._read_channelized(start, npages, nbytes)
        else:
            latency = self._read_scalar(npages)
        smart = self.smart
        smart.host_bytes_read += nbytes
        smart.nand_bytes_read += nbytes
        smart.host_read_requests += 1
        tracer = self.tracer
        if tracer.enabled:
            if self._channels is not None:
                ideal = (cfg.read_latency + nbytes / cfg.bus_bytes_per_s
                         + (-(-npages // cfg.channels)) * cfg.page_read_time)
            else:
                ideal = (cfg.read_latency
                         + npages * cfg.page_read_time / cfg.channels
                         + nbytes / cfg.bus_bytes_per_s)
            queueing = latency - ideal
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
        faults = self.faults
        if faults.enabled:
            extra = faults.on_read(self)
            if extra:
                latency += extra
        return latency

    def read_ranges(self, starts, lens) -> list[float]:
        """``read_range`` of every ``(start, npages)``, submitted at one
        instant: the same latencies and the same accounting.  Reads
        move neither the clock nor the scalar write horizon, so a
        latency is computed once per distinct length; channel queues,
        the tracer and fault draws are per-request state: the loop.
        """
        if (self._channels is not None or self.tracer.enabled
                or self.faults.enabled):
            return [self.read_range(start, npages)
                    for start, npages in zip(starts, lens)]
        by_length: dict[int, float] = {}
        latencies = []
        pages = requests = 0
        try:
            for start, npages in zip(starts, lens):
                if npages <= 0:
                    latencies.append(0.0)
                    continue
                if start < 0 or start + npages > self._npages:
                    self._check(start, npages)
                latency = by_length.get(npages)
                if latency is None:
                    latency = by_length[npages] = self._read_scalar(npages)
                latencies.append(latency)
                pages += npages
                requests += 1
        finally:  # an out-of-range request leaves the earlier ones counted
            if self.ftl is not None:
                self.ftl.total_read_pages += pages
            self.smart.host_bytes_read += pages * self._page_size
            self.smart.nand_bytes_read += pages * self._page_size
            self.smart.host_read_requests += requests
        return latencies

    def _read_scalar(self, npages: int) -> float:
        """Scalar-timing latency of one *npages* read issued now: the
        service floor plus the write-backlog contention penalty."""
        cfg = self.config
        latency = (
            cfg.read_latency
            + npages * cfg.page_read_time / cfg.channels
            + npages * self._page_size / cfg.bus_bytes_per_s
        )
        backlog = self.backlog_seconds()
        if backlog > 0 and cfg.read_contention > 0:
            saturation = min(1.0, backlog / cfg.read_contention_window)
            latency *= 1.0 + cfg.read_contention * saturation
        return latency

    def trim_range(self, start: int, npages: int) -> None:
        """TRIM a consecutive logical range (invalidate its data)."""
        if npages <= 0:
            return
        self._check(start, npages)
        if self.ftl is not None:
            self.ftl.trim_range(start, npages)
        else:
            self._mapped[start : start + npages] = False
        self.smart.trim_commands += 1

    def trim_all(self) -> None:
        """TRIM the whole logical space (the ``blkdiscard`` analogue)."""
        self.trim_range(0, self.npages)

    # ------------------------------------------------------------------
    # Busy-horizon queries used by engines for stall decisions
    # ------------------------------------------------------------------
    def enable_channel_timing(self) -> None:
        """Switch to the per-channel service model (DESIGN.md §4.3).

        Any scalar backlog accumulated so far carries over: each channel
        starts at the current busy horizon, preserving the drain time.
        Idempotent; used by the multi-client driver before the measured
        phase.
        """
        if self._channels is None:
            start = max(self._busy_until, self.clock.now)
            self._channels = ChannelTimeline(self.config.channels, start)

    @property
    def channel_timing_enabled(self) -> bool:
        """Whether the per-channel service model is active."""
        return self._channels is not None

    def channel_backlogs(self) -> list[float]:
        """Per-channel seconds of queued work (empty in scalar mode)."""
        if self._channels is None:
            return []
        now = self.clock.now
        return [max(0.0, b - now) for b in self._channels.busy]

    @property
    def scalar_busy_until(self) -> float:
        """Absolute drain time of the scalar busy horizon.

        Only meaningful while channel timing is off; engine batch fast
        paths read it once per run to recompute the write-stall penalty
        without a call chain per operation (DESIGN.md §6).
        """
        return self._busy_until

    def backlog_seconds(self, at: float | None = None) -> float:
        """Seconds of queued *write* work not yet completed at time *at*.

        In channel mode this is the *mean* per-channel program/erase
        backlog — the horizon at which the write cache drains under
        perfect interleaving, which is what the controller cache and
        engine stall heuristics care about.  Read service time is
        excluded: reads occupy channels (visible in read latencies and
        :meth:`channel_backlogs`) but hold nothing in the write cache.
        """
        now = self.clock.now if at is None else at
        if self._channels is not None:
            return self._channels.backlog(now)
        return max(0.0, self._busy_until - now)

    def drain(self) -> float:
        """Advance the clock until the device is idle; returns the wait."""
        if self._channels is not None:
            wait = self._channels.max_backlog(self.clock.now)
        else:
            wait = self.backlog_seconds()
        if wait > 0:
            self.clock.advance(wait)
        return wait

    def settle(self) -> None:
        """Discard any queued work time (device considered idle *now*).

        Used between experiment phases (e.g. after preconditioning) to
        model the idle gap before the measured run starts.
        """
        self._busy_until = self.clock.now
        if self._channels is not None:
            self._channels.reset(self.clock.now)

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------
    def device_write_amplification(self) -> float:
        """Lifetime WA-D from SMART counters."""
        return self.smart.device_write_amplification()

    def utilization(self) -> float:
        """Fraction of logical pages with data associated."""
        if self.ftl is not None:
            return self.ftl.utilization
        return float(np.count_nonzero(self._mapped)) / self.npages

    def is_mapped(self, lpn: int) -> bool:
        """Whether a logical page currently has data associated."""
        if self.ftl is not None:
            return self.ftl.is_mapped(lpn)
        if not 0 <= lpn < self.npages:
            raise OutOfRangeError(f"lpn {lpn} outside logical space")
        return bool(self._mapped[lpn])

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check(self, start: int, npages: int) -> None:
        if start < 0 or start + npages > self._npages:
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
        channels = self._channels
        fold = 1.0
        if self._fold_penalty > 1.0:
            # The SLC cache is overwhelmed: folding into QLC multiplies
            # the effective cost of the incoming writes (§4.7's "large
            # bursty writes overwhelm the cache").  Synchronous writers
            # self-clock at the cache window and never reach this
            # threshold; bursty background writers (LSM flushes and
            # compactions) push far past it and pay the folding cost.
            # The channel path's trigger check is O(1) unless the
            # backlog is actually near the threshold.
            if channels is not None:
                overwhelmed = channels.backlog_exceeds(now, self._fold_threshold)
            else:
                overwhelmed = self._busy_until - now > self._fold_threshold
            if overwhelmed:
                fold = self._fold_penalty
                smart.fold_events += 1
        if channels is not None:
            self._queue_flash_work(work, fold, now)
            if background:
                latency = 0.0
            else:
                # Mean positive backlog <= write_max - now (+ <= 16 ulps
                # of rounding, dwarfed by transfer > 0): within the drain
                # window the cache term cannot win, so skip the sum.
                transfer = nbytes / self._bus_bytes_per_s
                completion = now + transfer + self._host_write_latency
                window = self._cache_drain_window
                if channels.write_max - now > window:
                    completion = max(completion,
                                     now + channels.backlog(now) - window)
                latency = completion - now
        else:
            flash_time = (
                (work.host_pages + work.gc_pages) * self._program_time
                + work.erases * self._erase_time
            ) / self._nchannels * fold
            start = max(self._busy_until, now)
            self._busy_until = start + flash_time
            if background:
                latency = 0.0
            else:
                transfer = nbytes / self._bus_bytes_per_s
                completion = max(
                    now + transfer + self._host_write_latency,
                    self._busy_until - self._cache_drain_window,
                )
                latency = completion - now
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
        (gc seconds, total seconds) pair drained proportionally at the
        device's service rate; a foreground write's queueing time is
        split into ``gc_wait`` by the share at admission.
        """
        obs = self._gc_obs
        gc_out, total_out, last_t = obs
        drained = now - last_t
        if self._channels is not None:
            # Channel mode queues undivided per-page seconds; the array
            # drains them nchannels at a time.
            drained *= self._nchannels
        if total_out > 0.0 and drained > 0.0:
            if drained >= total_out:
                gc_out = 0.0
                total_out = 0.0
            else:
                gc_out -= drained * gc_out / total_out
                total_out -= drained
        flash_seconds = (work.programmed_pages * self._program_time
                         + work.erases * self._erase_time) * fold
        gc_seconds = (work.gc_pages * self._program_time
                      + work.erases * self._erase_time) * fold
        if self._channels is None:
            flash_seconds /= self._nchannels
            gc_seconds /= self._nchannels
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
        channels = self._channels
        if channels is not None:
            tracer.counter("channel_occupancy", {
                "write_backlog_s": channels.backlog(now),
                "busy_max_s": max(0.0, channels.busy_max - now),
            })

    def _queue_flash_work(self, work: WorkUnits, fold: float, now: float) -> None:
        """Stripe program/erase work across the per-channel horizons.

        Pages go round-robin from the interleaving cursor: the first
        ``pages % C`` lanes get ``pages // C + 1`` pages, the rest
        ``pages // C``.  Erases (a block-granularity operation) land on
        the cursor channel.  The cursor advances by ``pages % C`` (by
        one when ``pages`` is a multiple of ``C``) and by one more for
        erases, so small requests spread over the array.

        This loop is the only writer of the write horizons besides
        ``ChannelTimeline.reset``.  Per touched channel, program/erase
        time queues behind ``max(horizon, now)`` on *both* horizons
        (``busy``, the FIFO occupancy, and ``write_busy``, the
        write-cache drain) and the running maxima follow.  It is the
        device model's hottest edge: plain locals, the two per-lane
        costs computed once, lanes wrapped by subtraction.
        """
        channels = self._channels
        busy = channels.busy
        write_busy = channels.write_busy
        busy_max = channels.busy_max
        write_max = channels.write_max
        nchannels = len(busy)
        degrade = self.faults.degrade  # None unless a window is configured
        cursor = channels.cursor
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
        channels.cursor = cursor
        channels.busy_max = busy_max
        channels.write_max = write_max

    def _read_channelized(self, start: int, npages: int, nbytes: int) -> float:
        """Latency of a read served by per-channel FIFO queues.

        Page *start + i* maps to channel ``(start + i) % channels`` (the
        static striping of a consecutive LBA range); the request
        completes when its slowest channel finishes, so reads queue
        behind same-channel work and overlap across channels.

        A read touches at most ``channels`` (8 or 16) lanes, so the
        fold is one plain pass: nothing to vectorise (DESIGN.md §13.3).
        Reads hold nothing in the write cache, so only ``busy`` moves,
        and ``busy_max`` takes the completion maximum once.
        """
        cfg = self.config
        channels = self._channels
        busy = channels.busy
        nchannels = len(busy)
        now = self.clock.now
        base, extra = divmod(npages, nchannels)
        first = start % nchannels
        page_read_time = cfg.page_read_time
        more = (base + 1) * page_read_time
        less = base * page_read_time
        degrade = self.faults.degrade  # None unless a window is configured
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
        if completion > channels.busy_max:
            channels.busy_max = completion
        return cfg.read_latency + nbytes / cfg.bus_bytes_per_s + (completion - now)
