"""The LSM-tree key-value store (the RocksDB model).

Write path: WAL append (buffered) + memtable insert.  The op that
fills the memtable installs a fresh memtable and WAL, then flushes the
full one to L0 and compacts until the picker has nothing left, all
inside that op and at every client count, so L0 holds fewer than
``l0_compaction_trigger`` tables between ops.  That work is background
device work: it queues flash time without blocking the op.  What
binds a write-heavy run's throughput to device bandwidth /
(WA-A x WA-D), the dynamics of Fig 2a, is the device's write cache: a
WAL write-out, the one foreground write, completes only once the
queued flash work fits the cache (``flash/ssd.py``).  The
write-stall rule adds RocksDB's slowdown on top when the device
backlog passes a soft limit, and a stop past a hard one; it binds
where background work outruns a small cache (fig 9/10's LSM cell on
SSD2), and barely anywhere else.

Read path: the memtable, L0 newest-to-oldest, then one file per sorted
level; bloom filters (memory-resident) gate the data-block reads.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.clock import VirtualClock
from repro.errors import ConfigError, NoSpaceError, StoreClosedError
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.api import KVStore, as_int_list
from repro.kv.stats import KVStats
from repro.kv.values import Value
from repro.lsm.bloom import key_hashes
from repro.lsm.compaction import CompactionExecutor, CompactionPicker
from repro.lsm.config import LSMConfig
from repro.lsm.memtable import (KIND_DELETE, KIND_PUT, SCAN_KEY_SHIFT,
                                SCAN_KEY_SPAN, SCAN_KIND_BIT, SCAN_SEQ_SPAN,
                                MemTable)
from repro.lsm.sstable import split_into_tables
from repro.lsm.version import ReadRun, Version
from repro.lsm.wal import WriteAheadLog
from repro.obs.tracer import NULL_TRACER


class LSMStore(KVStore):
    """A leveled LSM tree over the simulated filesystem."""

    name = "lsm"

    def __init__(self, fs: ExtentFilesystem, clock: VirtualClock,
                 config: LSMConfig | None = None):
        self.fs = fs
        self.clock = clock
        # The SSD under the filesystem: the write path asks it for
        # its write backlog (see _write_many), so it must exist and
        # share this store's clock.
        self._ssd = getattr(fs.device, "ssd", None)
        if self._ssd is None:
            raise ConfigError("the LSM store needs an SSD under its "
                              "filesystem's block device")
        if self._ssd.clock is not clock:
            raise ConfigError("the LSM store and its SSD must share one clock")
        self.config = config or LSMConfig()
        self._stats = KVStats()
        self._next_seq = 1  # global write sequence (int, so batches can reserve ranges)
        self._table_ids = itertools.count(1)
        self._wal_ids = itertools.count(1)
        self.version = Version(self.config)
        self.picker = CompactionPicker(self.config)
        self.executor = CompactionExecutor(self.fs, self.config,
                                           self._next_table_id)
        self.memtable = MemTable(self.config)
        self.wal = WriteAheadLog(self.fs, self.config, next(self._wal_ids))
        self._closed = False
        # Cached batch-write constants per write kind (frozen config +
        # record geometry for the last-seen vlen; DESIGN.md §8).
        self._put_consts = None
        self._del_consts = None
        self.tracer = NULL_TRACER  # flight recorder (repro.obs)
        # Crash tracking (repro.faults): log_id -> ordered WAL records,
        # maintained only when enable_crash_tracking() was called.
        self._crash = None

    # ------------------------------------------------------------------
    # KVStore interface: one body per op kind (DESIGN.md §6)
    # ------------------------------------------------------------------
    #: Read batches at least this large are planned through the
    #: manifest's read index; smaller runs (the norm for mixed
    #: workloads, where same-kind runs are short, and the fleet's
    #: one-op calls) walk the tree per key (:meth:`_find`).  Planning
    #: costs ~70 us per batch plus ~1 us per key against ~12 us per
    #: walked get: the crossover (DESIGN.md §13.2).
    BULK_PROBE_MIN = 10

    def put_many(self, keys, vseeds, vlen: int, until: float | None = None,
                 latencies: list | None = None) -> int:
        """Batched puts: bulk memtable upsert + batched WAL accounting.

        Between device events (WAL write-outs, memtable rotations) a
        put's only side effects are pure accounting plus the write-stall
        penalty, so runs of ops are applied as one dict update while the
        clock/penalty recurrence is replayed op by op.  The op that
        triggers device work is a one-op segment of the same loop.
        """
        return self._write_many(keys, vseeds, vlen, until, latencies, False)

    def delete_many(self, keys, until: float | None = None,
                    latencies: list | None = None) -> int:
        """Batched tombstones (see :meth:`put_many`)."""
        return self._write_many(keys, None, 0, until, latencies, True)

    def get_many(self, keys, until: float | None = None,
                 latencies: list | None = None,
                 out: list | None = None) -> int:
        """Batched point lookups (DESIGN.md §13.2).

        Lookups never mutate the tree, so a large run resolves its
        memtable probes and then its whole table walk up front through
        the manifest's read index (bloom filters and index blocks are
        memory-resident: planning costs no simulated I/O).  What is
        left per op is the planned data-block reads, issued in stream
        order with a walked lookup's exact latency arithmetic.
        """
        self._ensure_open()
        n = len(keys)
        keys_list = as_int_list(keys)
        key_bytes = self.config.key_bytes
        # Planning pays off only when the batch is expected to run to
        # completion: a float `until` is a sampling boundary (rarely
        # crossed mid-run), but a live event-aware bound stops
        # deep-pool batches after an op or two, and planning the
        # remainder on every re-issued call would be quadratic.  Those,
        # short runs and lookups whose values are wanted walk the tree
        # op by op.
        bounds = None
        if (n >= self.BULK_PROBE_MIN and out is None
                and (until is None or type(until) is float)):
            entries = self.memtable._entries
            memtable_bytes = {}
            misses = []
            for i, key in enumerate(keys_list):
                entry = entries.get(key)
                if entry is None:
                    misses.append(i)
                elif entry[3] == KIND_PUT:
                    memtable_bytes[i] = key_bytes + entry[2]
            bounds, names, offsets, nbytes, hit_bytes = \
                self.version.plan_reads(np.asarray(keys, dtype=np.int64),
                                        np.array(misses, dtype=np.int64))
            for i, user_bytes in memtable_bytes.items():
                hit_bytes[i] = user_bytes
        clock = self.clock
        cpu = self.config.cpu_overhead
        stats = self._stats
        find = self._find
        pread = self.fs.pread
        append = None if latencies is None else latencies.append
        tracer = self.tracer
        tr_on = tracer.enabled
        done = 0
        try:
            for i in range(n):
                if tr_on:
                    t0 = clock.now
                    tracer.op_begin()
                if bounds is None:
                    entry = find(keys_list[i])
                    read_latency, value = (0.0, None) if entry is None \
                        else entry
                    if value is not None:
                        stats.user_bytes_read += key_bytes + value.length
                    if out is not None:
                        out.append(value)
                else:
                    read_latency = 0.0
                    for row in range(bounds[i], bounds[i + 1]):
                        read_latency += pread(names[row], offsets[row],
                                              nbytes[row])
                    stats.user_bytes_read += hit_bytes[i]
                latency = cpu + read_latency
                stats.gets += 1
                if tr_on:
                    tracer.op_end("read", t0, latency)
                clock.advance(latency)
                done += 1
                if append is not None:
                    append(latency)
                if until is not None and clock.now >= until:
                    break
        except NoSpaceError as exc:
            exc.ops_done = done
            raise
        return done

    def scan_many(self, start_keys, count: int, until: float | None = None,
                  latencies: list | None = None,
                  out: list | None = None) -> int:
        """Batched range scans with cursor reuse (DESIGN.md §7.3).

        Scans never mutate the tree, so one ``scan_many`` call shares
        a single snapshot of the scan sources across all its scans:
        the memtables' packed sorted columns (memoized per memtable)
        and the read index's sorted runs.  Each scan is then one
        composite-key argsort (:meth:`_scan_merge`) whose reads are
        planned per run and submitted together.
        """
        self._ensure_open()
        n = len(start_keys)
        if n == 0:
            return 0
        sources = self._scan_merge_sources()
        clock = self.clock
        cpu = self.config.cpu_overhead
        stats = self._stats
        append = None if latencies is None else latencies.append
        keys_list = as_int_list(start_keys)
        tracer = self.tracer
        tr_on = tracer.enabled
        done = 0
        try:
            for i in range(n):
                if tr_on:
                    t0 = clock.now
                    tracer.op_begin()
                latency = cpu + self._scan_merge(keys_list[i], count, sources,
                                                 out)
                stats.scans += 1
                if tr_on:
                    tracer.op_end("scan", t0, latency)
                clock.advance(latency)
                done += 1
                if append is not None:
                    append(latency)
                if until is not None and clock.now >= until:
                    break
        except NoSpaceError as exc:
            exc.ops_done = done
            raise
        return done

    def _scan_merge_sources(self) -> list:
        """``(comp, vlens, owner)`` per merge source.

        A source is a sorted run and *owner* the memtable or
        :class:`~repro.lsm.version.ReadRun` holding its entries, in
        the order the reads are charged: the memtable, then the read
        index's runs — each L0 table, then one whole level at a time
        (the order only matters for the read charges — sequence
        numbers are globally unique, so the merge order itself has no
        ties).  Raises
        :class:`ConfigError`, before anything is charged, when a key
        or the sequence counter is outside the composite packing.
        """
        if self._next_seq > SCAN_SEQ_SPAN:
            raise ConfigError(
                f"scans need sequence numbers below {SCAN_SEQ_SPAN}; "
                f"this store has issued {self._next_seq - 1}")
        sources: list = [(*self.memtable.sorted_columns(), self.memtable)]
        for run in self.version.runs():
            if run.tables[0].min_key < 0 or run.tables[-1].max_key >= SCAN_KEY_SPAN:
                raise ConfigError(
                    f"scans need keys in [0, {SCAN_KEY_SPAN}); a table holds "
                    f"[{run.tables[0].min_key}, {run.tables[-1].max_key}]")
            if run.comp is None:
                run.build_scan_columns(self.fs.byte_runs)
            sources.append((run.comp, run.vlens, run))
        return sources

    def _scan_merge(self, start_key: int, count: int, sources: list,
                    out: list | None) -> float:
        """One scan over the shared sources; returns the charged read
        latency (DESIGN.md §13.1).

        A k-way merge of the sources in (key asc, seq desc) order that
        stops at the pop emitting result ``count``, done as one stable
        argsort of the packed composites over a window of ``count + 1``
        entries per source: the sorted prefix below the smallest
        out-of-window composite is exactly the merge's pop sequence,
        so duplicate suppression (first occurrence per key), result
        counting (first-occurrence puts) and the stop position are
        computed on that prefix with masks.  Windows double and the
        merge recomputes in the rare case the fixed window cannot
        prove ``count`` results (duplicate/tombstone pile-ups).  The
        charging rules, derived per run from its start position and
        pop count: a merge holds one entry ahead of every source, so
        every table from the one holding the start to the run's last
        consumes at least its first entry, a consumed window ends one
        past the last popped entry, capped to the table, and the
        windows are charged as one sequential read per table in
        manifest order, submitted at once.  *out*, when given,
        receives the emitted ``(key, Value)`` pairs, each read back
        from the memtable or table that owns it.
        """
        active: list = []      # (pos, comp, vlens, owner) per active source
        charged: list = []     # (run, pos, source index) in order
        # comp >= key << SCAN_KEY_SHIFT exactly when key >= start_key,
        # so the composite bound finds the start position.  (A uint64
        # needle: a plain int would promote the column to float64.)
        target = np.uint64(min(max(start_key, 0), SCAN_KEY_SPAN)) << SCAN_KEY_SHIFT
        for comp, vlens, owner in sources:
            pos = int(comp.searchsorted(target))
            if pos == len(comp):
                continue  # the source ends below start_key
            if type(owner) is ReadRun:
                charged.append((owner, pos, len(active)))
            active.append((pos, comp, vlens, owner))

        pops = [0] * len(active)
        if count > 0 and active:
            window = count + 1
            while True:
                boundary = None
                parts: list = []
                cumlens: list = []
                total = 0
                for pos, comp, _vlens, _owner in active:
                    nentries = len(comp)
                    end = pos + window
                    if end < nentries:
                        if boundary is None or comp[end] < boundary:
                            boundary = comp[end]
                    else:
                        end = nentries
                    parts.append((pos, end))
                    total += end - pos
                    cumlens.append(total)
                ccomp = np.concatenate(
                    [src[1][p:e] for src, (p, e) in zip(active, parts)])
                order = np.argsort(ccomp, kind="stable")
                scomp = ccomp[order]
                # Only the prefix below the smallest out-of-window
                # composite is provably the true merge order: a deeper
                # entry of a truncated source could interleave later.
                limit = len(scomp) if boundary is None else int(
                    scomp.searchsorted(boundary))  # a uint64 needle too
                swin = scomp[:limit]
                hi = swin >> SCAN_KEY_SHIFT
                newkey = np.empty(limit, dtype=bool)
                if limit:
                    newkey[0] = True
                    np.not_equal(hi[1:], hi[:-1], out=newkey[1:])
                # A pop emits a result iff it is the first (newest-seq)
                # occurrence of its key and is a put.  KIND_PUT is the
                # packed low bit's zero value.
                emit = newkey & ((swin & SCAN_KIND_BIT) == KIND_PUT)
                cum = np.cumsum(emit)
                stop = int(cum.searchsorted(count))
                if stop < limit:
                    npop = stop + 1
                    break
                if boundary is None:
                    npop = limit  # sources exhausted before count
                    break
                window *= 2

            if npop:
                psel = order[:npop]
                emitted = emit[:npop]
                nemit = int(emitted.sum())
                # Concatenation index -> source index, then pops per
                # source (how far each source's cursor advances).
                source_of = np.searchsorted(cumlens, psel, side="right")
                pops = np.bincount(source_of, minlength=len(active)).tolist()
                if nemit:
                    picked = psel[emitted]
                    cvlens = np.concatenate(
                        [src[2][p:e] for src, (p, e) in zip(active, parts)])[picked]
                    self._stats.user_bytes_read += (
                        nemit * self.config.key_bytes + int(cvlens.sum()))
                    if out is not None:
                        for key, vlen, at, si in zip(
                                hi[:npop][emitted].tolist(), cvlens.tolist(),
                                picked.tolist(), source_of[emitted].tolist()):
                            owner = active[si][3]
                            if type(owner) is MemTable:
                                vseed = owner._entries[key][1]
                            else:
                                # Position in the run, then in its table.
                                at += parts[si][1] - cumlens[si]
                                t = int(owner.starts.searchsorted(
                                    at, side="right")) - 1
                                vseed = int(owner.tables[t].vseeds[
                                    at - int(owner.starts[t])])
                            out.append((key, Value(vseed, vlen)))

        # Table t of a run reads its entries first_t .. min(max(first_t,
        # pos + pops), last_t): from pos in the table holding it, from
        # the table's own start in every later one.  For every table
        # starting at or past pos + pops (from tk on) that is its first
        # entry alone, resolved once per run (head_runs); tables
        # t0 .. tk - 1 — usually one or two — resolve here.
        byte_runs = self.fs.byte_runs
        groups: list = []
        for run, pos, si in charged:
            ahead = pos + pops[si]
            if len(run.tables) == 1:  # every L0 run
                t0, tk = 0, 1
            else:
                t0 = int(run.max_keys.searchsorted(start_key))
                tk = int(run.starts.searchsorted(ahead))  # >= t0
            first = pos
            for t in range(t0, tk):
                if t > t0:
                    first = int(run.starts[t])
                offset = int(run.lo[first])
                last = min(max(first, ahead), int(run.lasts[t]))
                groups.append(byte_runs(run.names[t], offset,
                                        int(run.hi[last]) - offset))
            groups.extend(run.head_runs[tk:])
        return self.fs.read_runs(groups)

    def _write_many(self, keys, vseeds, vlen: int, until: float | None,
                    latencies: list | None, delete: bool) -> int:
        """Shared batched write path for puts and deletes.

        Works under every driver (DESIGN.md §7.2): between device
        events a write's only side effects are pure accounting plus the
        stall penalty, and inside one batch call no other scheduler
        event can run, so the device's write backlog is a fixed
        function of time and the clock/penalty recurrence is replayed
        locally, op by op.  The op that triggers device work (WAL
        write-out, memtable rotation with its flush and compactions)
        is a one-op segment of the same loop, timed after that work.
        """
        if self._closed:
            self._ensure_open()
        n = len(keys)
        if n == 0:
            return 0

        # Per-call setup is hot at queue depth (interleaving cuts
        # segments down to a few ops), so everything derivable from the
        # frozen config *and the call shape* — including the per-record
        # sizes, which depend only on (delete, vlen) — is cached as one
        # tuple per write kind and re-derived only when vlen changes.
        consts = self._del_consts if delete else self._put_consts
        if consts is None or consts[0] != vlen:
            config = self.config
            key_bytes = config.key_bytes
            payload = key_bytes if delete else key_bytes + vlen
            consts = (
                vlen, config.cpu_overhead, config.backlog_soft_limit,
                config.backlog_hard_limit, config.slowdown_factor,
                config.memtable_bytes, config.wal_buffer_bytes, payload,
                key_bytes + config.entry_overhead + (0 if delete else vlen),
                payload + config.wal_entry_overhead,
            )
            if delete:
                self._del_consts = consts
            else:
                self._put_consts = consts
        (_, cpu, soft, hard, slowdown, memtable_bytes, wal_buffer_bytes,
         payload, entry_bytes, wal_record) = consts
        clock = self.clock
        backlog_at = self._ssd.backlog_seconds
        keys_list = keys if type(keys) is list else as_int_list(keys)
        seeds_list = None if vseeds is None else (
            vseeds if type(vseeds) is list else as_int_list(vseeds))
        tracer = self.tracer
        tr_on = tracer.enabled
        wkind = "delete" if delete else "update"
        append = None if latencies is None else latencies.append
        done = 0
        try:
            while done < n:
                cap = n - done
                wal = self.wal
                memtable = self.memtable
                # Records that stay below the buffered write-out
                # threshold (the next one past this cap triggers the
                # device write).
                wal_cap = (wal_buffer_bytes - 1 - wal._buffered) // wal_record
                if wal_cap < cap:
                    cap = wal_cap
                # Entries that keep the memtable below its flush
                # threshold (the next one rotates it).
                mem_cap = (memtable_bytes - 1
                           - memtable.approximate_bytes) // entry_bytes
                if mem_cap < cap:
                    cap = mem_cap
                now = clock.now
                cost = cpu  # per-op latency before the stall penalty
                device = cap <= 0
                if device:
                    # The next op writes the WAL out or rotates the
                    # memtable: a one-op segment whose device work comes
                    # before its timing, so the stall rule reads the
                    # backlog that work leaves.  The write-out goes
                    # first: one that runs out of space leaves the op
                    # unapplied.
                    cap = 1
                    if tr_on:
                        tracer.op_begin()
                    wal_latency = wal.append(payload)
                    if tr_on and wal_latency > 0.0:
                        tracer.span("wal_append", "lsm", now, wal_latency,
                                    {"bytes": payload})
                    cost = cpu + wal_latency
                    self._apply_writes(keys_list, seeds_list, done, 1,
                                       delete, consts)
                    if memtable.full:
                        self._rotate_memtable()

                # Replay the clock/stall recurrence locally: no device
                # work can occur inside this run, so the busy horizon
                # is a constant — and the replay schedules no events,
                # so a live until proxy can be snapshotted to a plain
                # float for the window.
                if until is None or type(until) is float:
                    bound = until
                else:
                    bound = until.snapshot()
                wmax = self._ssd.write_horizon
                took = 0
                if wmax <= now and not device:
                    # Zero backlog stays zero: per-op latency is the
                    # constant CPU cost (accumulated op by op, so float
                    # rounding matches per-op clock advances).
                    if bound is None and append is None and not tr_on:
                        for _ in range(cap):
                            now += cpu
                        took = cap
                    else:
                        for _ in range(cap):
                            if tr_on:
                                tracer.op_write(wkind, now, cpu, 0.0)
                            now += cpu
                            took += 1
                            if append is not None:
                                append(cpu)
                            if bound is not None and now >= bound:
                                break
                else:
                    # The stall rule (RocksDB's slowdown and stop): its
                    # only input is the device's own backlog at the
                    # replay clock; past the write horizon it is an
                    # exact 0.0, unasked.
                    for _ in range(cap):
                        if now >= wmax:
                            backlog = 0.0
                        else:
                            backlog = backlog_at(now)
                        if backlog > hard:
                            penalty = backlog - hard
                            penalty += (hard - soft) * slowdown
                        elif backlog > soft:
                            penalty = (backlog - soft) * slowdown
                        else:
                            penalty = 0.0
                        latency = cost + penalty
                        if tr_on:
                            if device:
                                if penalty > 0.0:
                                    tracer.add("write_stall", penalty)
                                    tracer.instant("write_stall", "lsm", {
                                        "backlog_s": backlog,
                                        "penalty_s": penalty,
                                        "l0_files": len(self.version.levels[0]),
                                    })
                                tracer.op_end(wkind, now, latency)
                            else:
                                tracer.op_write(wkind, now, latency, penalty)
                        now += latency
                        took += 1
                        if append is not None:
                            append(latency)
                        if bound is not None and now >= bound:
                            break

                if not device:
                    wal._buffered += took * wal_record
                    self._apply_writes(keys_list, seeds_list, done, took,
                                       delete, consts)
                # Store `now` back.  It only grew from the value read;
                # the comparison keeps the clock monotone by
                # construction, not by trust.
                if now > clock.now:
                    clock.now = now
                done += took
                # `now` is the clock as just stored, so the boundary
                # check can reuse the local instead of re-reading it.
                if bound is not None and now >= bound:
                    break
        except NoSpaceError as exc:
            exc.ops_done = done
            raise
        return done

    def _apply_writes(self, keys_list: list, seeds_list: list | None,
                      lo: int, took: int, delete: bool, consts: tuple) -> None:
        """Apply ops ``lo .. lo + took`` of a write batch to the store's
        memory: sequence numbers, the memtable, the crash record and
        the stats (the WAL buffer bytes are the caller's)."""
        vlen = consts[0]
        payload, entry_bytes, wal_record = consts[7:]
        memtable = self.memtable
        stats = self._stats
        first_seq = self._next_seq
        self._next_seq = first_seq + took
        if delete:
            if took == 1:
                # memtable.delete, inlined with the entry size already
                # in hand (the queue-depth hot path lands here once per
                # interleaved op).
                memtable._entries[keys_list[lo]] = \
                    (first_seq, 0, 0, KIND_DELETE)
                memtable.approximate_bytes += entry_bytes
            else:
                memtable.bulk_delete(keys_list[lo:lo + took], first_seq)
            stats.deletes += took
        else:
            if took == 1:
                # memtable.put, inlined (see the delete branch).
                memtable._entries[keys_list[lo]] = \
                    (first_seq, seeds_list[lo], vlen, KIND_PUT)
                memtable.approximate_bytes += entry_bytes
            else:
                memtable.bulk_put(keys_list[lo:lo + took], first_seq,
                                  seeds_list[lo:lo + took], vlen)
            stats.puts += took
        if self._crash is not None:
            crash_log = self._crash.setdefault(self.wal.log_id, [])
            if delete:
                for k in keys_list[lo:lo + took]:
                    crash_log.append((k, 0, 0, KIND_DELETE, wal_record))
            else:
                for k, s in zip(keys_list[lo:lo + took],
                                seeds_list[lo:lo + took]):
                    crash_log.append((k, s, vlen, KIND_PUT, wal_record))
        stats.user_bytes_written += took * payload

    def flush(self) -> None:
        """Flush the memtable and run compactions to completion."""
        self._ensure_open()
        self.wal.sync()
        if len(self.memtable):
            self._rotate_memtable()

    def close(self) -> None:
        """Flush everything and refuse further operations."""
        if self._closed:
            return
        self.flush()
        self._closed = True

    @property
    def stats(self) -> KVStats:
        """Cumulative application-level statistics."""
        return self._stats

    def counters(self) -> dict:
        return {**self._stats.labelled(), **self.executor.stats.labelled()}

    @property
    def disk_bytes_used(self) -> int:
        """Filesystem space occupied (the store owns its filesystem)."""
        return self.fs.used_bytes

    # ------------------------------------------------------------------
    # Crash recovery (fault injection; DESIGN.md §11)
    # ------------------------------------------------------------------
    def enable_crash_tracking(self) -> None:
        """Record WAL records so :meth:`crash_and_recover` can replay.

        Tracking costs one dict append per write, so it is opt-in: the
        fleet enables it only for shards scheduled to be killed.
        """
        self._crash = {}

    def crash_and_recover(self) -> tuple[float, set[int]]:
        """Kill the store at the current instant and rebuild from disk.

        Volatile state — the memtable and its WAL's unwritten buffer
        tail — is discarded.  Recovery reads the WAL file, replays its
        durable records (newest record winning per key) into a fresh
        memtable that is flushed to L0, then installs an empty memtable
        and a fresh WAL.  Returns ``(recovery_seconds, lost_keys)``:
        *lost_keys* are the keys whose newest write sat in a lost
        buffer tail, so their reads may now return an older durable
        version — exactly RocksDB's contract with unsynced WAL writes
        after a power cut.  The caller schedules the recovery time;
        the store does not advance the clock itself.
        """
        if self._crash is None:
            raise ConfigError(
                "crash_and_recover requires enable_crash_tracking() "
                "before the writes to be recovered")
        fs = self.fs
        wal = self.wal
        records = self._crash.get(wal.log_id, [])
        # The buffer tail never reached the device: walk back from the
        # end until the unwritten bytes are accounted for.
        buffered = wal._buffered
        cut = len(records)
        while buffered > 0 and cut > 0:
            cut -= 1
            buffered -= records[cut][4]
        lost_status: dict[int, bool] = {}
        for i, rec in enumerate(records):
            lost_status[rec[0]] = i >= cut
        replay = records[:cut]
        size = fs.file_size(wal.filename)
        latency = fs.pread(wal.filename, 0, size) if size else 0.0
        # Drop the volatile state and the replayed log.
        wal._buffered = 0
        wal.discard()
        self._crash.pop(wal.log_id, None)
        rebuilt = MemTable(self.config)
        seq = self._next_seq
        for key, vseed, vlen, kind, _nbytes in replay:
            if kind == KIND_PUT:
                rebuilt.put(key, seq, vseed, vlen)
            else:
                rebuilt.delete(key, seq)
            seq += 1
        self._next_seq = seq
        latency += self.config.cpu_overhead * len(replay)
        if len(rebuilt):
            # Make the replayed state durable immediately (flush to
            # L0), so a second crash cannot lose it again.
            self._flush_one(rebuilt, None)
            self._run_compactions()
        self.memtable = MemTable(self.config)
        self.wal = WriteAheadLog(fs, self.config, next(self._wal_ids))
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("crash_recover", "fault", {
                "replayed": len(replay),
                "lost_keys": sum(lost_status.values()),
                "seconds": latency,
            })
        lost = {key for key, is_lost in lost_status.items() if is_lost}
        return latency, lost

    # ------------------------------------------------------------------
    # Write-path internals
    # ------------------------------------------------------------------
    def _rotate_memtable(self) -> None:
        """Install a fresh memtable and WAL, then flush the full pair to
        L0 and compact until the picker has nothing left.

        The flush's device work is background work whose latency is
        *not* part of the triggering op's user-visible latency, so the
        op attribution context is suspended around it — its flash reads
        and writes show up as their own trace spans, never as op
        components (DESIGN.md §9.2).
        """
        memtable, wal = self.memtable, self.wal
        self.memtable = MemTable(self.config)
        self.wal = WriteAheadLog(self.fs, self.config, next(self._wal_ids))
        tracer = self.tracer
        if tracer.enabled:
            tracer.op_suspend()
            try:
                self._flush_one(memtable, wal)
                self._run_compactions()
            finally:
                tracer.op_resume()
        else:
            self._flush_one(memtable, wal)
            self._run_compactions()

    def _flush_one(self, memtable: MemTable, wal: WriteAheadLog | None) -> None:
        if wal is not None:
            wal.sync()
        arrays = memtable.sorted_arrays()
        if len(arrays[0]):
            flushed = 0
            for table in split_into_tables(self._next_table_id, self.config, *arrays):
                self.fs.create(table.filename)
                self.fs.append(table.filename, table.data_bytes, background=True)
                flushed += table.data_bytes
                self.version.add(0, table)
            tracer = self.tracer
            if tracer.enabled:
                tracer.instant("memtable_flush", "lsm", {
                    "bytes": flushed,
                    "entries": len(arrays[0]),
                })
        if wal is not None:
            wal.discard()
            if self._crash is not None:
                self._crash.pop(wal.log_id, None)

    def _run_compactions(self) -> None:
        while (compaction := self.picker.pick(self.version)) is not None:
            self.executor.run(compaction, self.version)

    # ------------------------------------------------------------------
    # Read-path internals
    # ------------------------------------------------------------------
    def _find(self, key: int) -> tuple[float, Value | None] | None:
        """Locate the newest version of *key*; None if unknown."""
        entry = self.memtable.get(key)
        if entry is not None:
            return 0.0, self._to_value(entry)
        # One hash per get: every candidate table's filter takes the pair.
        h1, h2 = key_hashes(key)
        pread = self.fs.pread
        version = self.version
        latency = 0.0
        for level, tables in enumerate(version.levels):
            if level and tables:
                # A sorted level: the one table whose range may hold the key.
                table = version.find_table(level, key)
                tables = () if table is None else (table,)
            for table in tables:
                block = table.probe(key, h1, h2)
                if block is None:
                    continue
                offset, nbytes, row = block
                latency += pread(table.filename, offset, nbytes)
                if row >= 0:
                    return latency, table.value(row)
        return (latency, None) if latency else None

    @staticmethod
    def _to_value(entry: tuple[int, int, int, int]) -> Value | None:
        _seq, vseed, vlen, kind = entry
        if kind == KIND_DELETE:
            return None
        return Value(vseed, vlen)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _next_table_id(self) -> int:
        return next(self._table_ids)

    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError("the LSM store is closed")

    def check_invariants(self) -> None:
        """Verify manifest and table consistency (test support)."""
        self.version.check_invariants()
        for _level, table in self.version.all_tables():
            table.check_invariants()
            assert self.fs.exists(table.filename)
            assert self.fs.file_size(table.filename) == table.data_bytes
