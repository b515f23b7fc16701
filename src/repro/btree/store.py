"""The B+Tree key-value store (the WiredTiger model).

Operations descend internal nodes (memory-resident, like WiredTiger's
internal pages) to a leaf.  If the leaf is not in the page cache the
user thread reads it from the device; updates dirty the leaf in cache,
and cache pressure forces the user thread to reconcile (write out)
evicted dirty leaves copy-on-write inside the single tree file.  A
write-ahead journal record is written per update, and periodic
checkpoints write back dirty pages and internal metadata.

The resulting behaviour matches the paper's analysis: per-operation
latency is dominated by a synchronous leaf read + journal/eviction
writes + CPU overhead (so throughput is stable and less sensitive to
device backlog, Fig 2b/10b), application-level write amplification is
flat at roughly leaf-page-size / value-size (Fig 2d), and all device
writes stay within the tree file's confined LBA range (Fig 4).
"""

from __future__ import annotations

from bisect import bisect_left

from repro.btree.cache import PageCache
from repro.btree.config import BTreeConfig
from repro.btree.node import InternalNode, LeafNode
from repro.btree.pager import Pager
from repro.core.clock import VirtualClock
from repro.errors import NoSpaceError, StoreClosedError
from repro.fs.filesystem import ExtentFilesystem
from repro.kv.api import KVStore, as_int_list
from repro.kv.stats import KVStats
from repro.kv.values import Value
from repro.obs.tracer import NULL_TRACER


class BTreeStore(KVStore):
    """A single-file B+Tree over the simulated filesystem."""

    name = "btree"

    JOURNAL_FILE = "btree.journal"
    META_FILE = "btree.meta"

    def __init__(self, fs: ExtentFilesystem, clock: VirtualClock,
                 config: BTreeConfig | None = None):
        self.fs = fs
        self.clock = clock
        self.config = config or BTreeConfig()
        self._stats = KVStats()
        self.pager = Pager(fs, self.config.leaf_page_bytes)
        self.cache = PageCache(self.config.cache_bytes)
        self._root: InternalNode | LeafNode = LeafNode()
        self._first_leaf: LeafNode = self._root
        self._internal_count = 0
        self._closed = False
        self._last_checkpoint = clock.now
        self.checkpoints = 0
        self.scheduler = None  # event-driven checkpoints when attached
        self._checkpoint_pending = False
        self.journal_bytes = 0
        self._journal_offset = 0
        self._journal_since_checkpoint = 0
        #: Last leaf a batched read/scan touched — the cross-call
        #: descent-reuse cursor (DESIGN.md §7.3).  Always validated
        #: against the leaf's *current* key bounds before reuse, which
        #: also makes stale pointers safe: only empty leaves are ever
        #: unlinked, and an empty leaf never passes the bounds test.
        self._read_cursor: LeafNode | None = None
        self.tracer = NULL_TRACER  # flight recorder (repro.obs)
        fs.create(self.JOURNAL_FILE)
        fs.reserve(self.JOURNAL_FILE, self.config.journal_ring_bytes)
        self.cache.insert(id(self._root), self._root)

    # ------------------------------------------------------------------
    # KVStore interface: one body per op kind (DESIGN.md §6)
    # ------------------------------------------------------------------
    def put_many(self, keys, vseeds, vlen: int, until: float | None = None,
                 latencies: list | None = None) -> int:
        """Batched puts with tree-descent reuse.

        Operations are applied strictly in order (reordering would
        change the journal/eviction sequence, and a batch must equal
        its ops as one-op batches), but the descent is skipped when the
        previous op's leaf provably covers the key — an in-place update
        of a key the leaf already holds, or an append to the rightmost
        leaf — and no split can occur (a split needs the descent path).
        Journal, cache, checkpoint, and clock effects are exactly a
        one-op batch's, op by op.  Valid in event-driven runs too: the
        local clock mirror accumulates advances exactly like
        ``clock.advance`` (DESIGN.md §7.2), and checkpoints scheduled by
        an op interrupt the batch through the event-aware ``until``.
        """
        self._ensure_open()
        n = len(keys)
        if n == 0:
            return 0
        config = self.config
        clock = self.clock
        cpu = config.cpu_overhead
        page_bytes = config.leaf_page_bytes
        payload = config.key_bytes + vlen
        entry_bytes = config.leaf_entry_bytes(vlen)
        stats = self._stats
        adjust = self.cache.adjust
        keys_list = as_int_list(keys)
        seeds_list = as_int_list(vseeds)
        # Inlined journal-record accounting (see _journal): every put
        # writes one ring record, so the call overhead is hot.
        record_bytes = payload + 32
        ring = config.journal_ring_bytes
        pwrite = self.fs.pwrite
        checkpoint_interval = config.checkpoint_interval
        checkpoint_log_bytes = config.checkpoint_log_bytes
        touch = self.cache.touch
        append = None if latencies is None else latencies.append
        tracer = self.tracer
        tr_on = tracer.enabled
        leaf = None
        done = 0
        # Local mirror of the clock: the engine only advances time at
        # the end of each op (device calls read but never move it), so
        # the boundary checks can use a plain float.
        now = clock.now
        try:
            for i in range(n):
                key = keys_list[i]
                if tr_on:
                    tracer.op_begin()
                latency = cpu
                path: list | None = None
                update_idx = -1
                reuse = False
                if leaf is not None and (lkeys := leaf.keys):
                    # Cheap bounds probe before the binary search: in
                    # the measured (random-key) phase most ops land on
                    # a different leaf, and two compares reject it.
                    if lkeys[0] <= key <= lkeys[-1]:
                        update_idx = leaf.find(key)
                        if update_idx >= 0:
                            reuse = leaf.nbytes - leaf.vlens[update_idx] + vlen \
                                <= page_bytes
                    elif leaf.next_leaf is None and key > lkeys[-1]:
                        reuse = leaf.nbytes + entry_bytes <= page_bytes
                if not reuse:
                    leaf, path = self._descend(key)
                    update_idx = -1
                if not touch(id(leaf)):
                    latency += self._fault_leaf(leaf)
                before = leaf.nbytes
                appending = False
                if update_idx >= 0:
                    # In-place update at the index the reuse probe
                    # found (upsert's hit branch without re-searching).
                    # The reuse guard bounds the new size, so no split
                    # can follow.
                    leaf.nbytes = before + vlen - leaf.vlens[update_idx]
                    leaf.vseeds[update_idx] = seeds_list[i]
                    leaf.vlens[update_idx] = vlen
                    leaf.dirty = True
                else:
                    appending = not leaf.keys or key >= leaf.keys[-1]
                    leaf.upsert(key, seeds_list[i], vlen, config)
                adjust(leaf.nbytes - before)
                if leaf.nbytes > page_bytes:
                    latency += self._split_leaf(leaf, path, appending)
                if tr_on:
                    jbase = latency
                self.journal_bytes += record_bytes
                self._journal_since_checkpoint += record_bytes
                start = self._journal_offset
                if start + record_bytes > ring:
                    latency += pwrite(self.JOURNAL_FILE, start, ring - start)
                    latency += pwrite(self.JOURNAL_FILE, 0,
                                      record_bytes - (ring - start))
                else:
                    latency += pwrite(self.JOURNAL_FILE, start, record_bytes)
                self._journal_offset = (start + record_bytes) % ring
                if tr_on and latency > jbase:
                    tracer.span("journal_append", "btree", now,
                                latency - jbase, {"bytes": record_bytes})
                stats.puts += 1
                stats.user_bytes_written += payload
                if (now - self._last_checkpoint >= checkpoint_interval
                        or self._journal_since_checkpoint >= checkpoint_log_bytes):
                    self._maybe_checkpoint()
                if tr_on:
                    tracer.op_end("update", now, latency)
                clock.advance(latency)
                now += latency
                done += 1
                if append is not None:
                    append(latency)
                if until is not None and now >= until:
                    break
        except NoSpaceError as exc:
            exc.ops_done = done
            raise
        return done

    def get_many(self, keys, until: float | None = None,
                 latencies: list | None = None,
                 out: list | None = None) -> int:
        """Batched point lookups with cached-leaf descent reuse.

        Same reuse rule as :meth:`put_many` (DESIGN.md §7.3): when the
        previous op's leaf provably covers the key — its key range
        brackets it, or it is the rightmost leaf and the key lies
        beyond — the internal-node descent is skipped.  Lookups never
        restructure the tree (checkpoints write pages back but move no
        keys), so the cached leaf stays valid across the whole run.
        Cache touches, faults, checkpoint triggers, and clock effects
        are exactly a one-op batch's, op by op.
        """
        self._ensure_open()
        n = len(keys)
        if n == 0:
            return 0
        clock = self.clock
        config = self.config
        cpu = config.cpu_overhead
        key_bytes = config.key_bytes
        checkpoint_interval = config.checkpoint_interval
        checkpoint_log_bytes = config.checkpoint_log_bytes
        stats = self._stats
        touch = self.cache.touch
        append = None if latencies is None else latencies.append
        keys_list = as_int_list(keys)
        tracer = self.tracer
        tr_on = tracer.enabled
        leaf = self._read_cursor
        done = 0
        # Local clock mirror (see put_many): lookups advance time only
        # at op end, so the boundary and checkpoint-due checks run on a
        # plain float.
        now = clock.now
        try:
            for i in range(n):
                key = keys_list[i]
                if tr_on:
                    tracer.op_begin()
                latency = cpu
                reuse = False
                if leaf is not None and (lkeys := leaf.keys):
                    if lkeys[0] <= key <= lkeys[-1]:
                        reuse = True
                    elif leaf.next_leaf is None and key > lkeys[-1]:
                        reuse = True
                if not reuse:
                    leaf, _path = self._descend(key)
                if not touch(id(leaf)):
                    latency += self._fault_leaf(leaf)
                idx = leaf.find(key)
                if idx >= 0:
                    stats.user_bytes_read += key_bytes + leaf.vlens[idx]
                if out is not None:
                    out.append(Value(leaf.vseeds[idx], leaf.vlens[idx])
                               if idx >= 0 else None)
                stats.gets += 1
                if (now - self._last_checkpoint >= checkpoint_interval
                        or self._journal_since_checkpoint >= checkpoint_log_bytes):
                    # _maybe_checkpoint's due test, inlined (it reads
                    # the same clock value this mirror tracks).
                    self._maybe_checkpoint()
                if tr_on:
                    tracer.op_end("read", now, latency)
                clock.advance(latency)
                now += latency
                done += 1
                if append is not None:
                    append(latency)
                if until is not None and now >= until:
                    break
        except NoSpaceError as exc:
            exc.ops_done = done
            raise
        finally:
            self._read_cursor = leaf
        return done

    def delete_many(self, keys, until: float | None = None,
                    latencies: list | None = None) -> int:
        """Batched deletes, one full descent each.

        Each op faults its leaf in, removes the key (unlinking a leaf
        it leaves empty) and journals a key-only record; the journal,
        cache, checkpoint and clock effects follow op by op.
        """
        self._ensure_open()
        clock = self.clock
        config = self.config
        cpu = config.cpu_overhead
        key_bytes = config.key_bytes
        stats = self._stats
        adjust = self.cache.adjust
        append = None if latencies is None else latencies.append
        tracer = self.tracer
        tr_on = tracer.enabled
        done = 0
        try:
            for key in as_int_list(keys):
                if tr_on:
                    t0 = clock.now
                    tracer.op_begin()
                latency = cpu
                leaf, path = self._descend(key)
                latency += self._make_resident(leaf)
                before = leaf.nbytes
                if leaf.remove(key, config):
                    adjust(leaf.nbytes - before)
                    if not leaf.keys and path:
                        self._drop_leaf(leaf, path)
                latency += self._journal(key_bytes)
                stats.deletes += 1
                stats.user_bytes_written += key_bytes
                self._maybe_checkpoint()
                if tr_on:
                    tracer.op_end("delete", t0, latency)
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
        """Batched range scans with cached-leaf descent reuse.

        The leaf a scan ends on seeds the next scan's start-leaf
        lookup: when it covers the next start key the descent is
        skipped (scans often revisit a neighbourhood, and the
        rightmost leaf absorbs every past-the-end start key).  The
        walk faults in each visited leaf and accounts its qualifying
        entries with one bisect plus a slice sum (DESIGN.md §13).
        """
        self._ensure_open()
        n = len(start_keys)
        if n == 0:
            return 0
        clock = self.clock
        config = self.config
        cpu = config.cpu_overhead
        key_bytes = config.key_bytes
        stats = self._stats
        append = None if latencies is None else latencies.append
        keys_list = as_int_list(start_keys)
        tracer = self.tracer
        tr_on = tracer.enabled
        cached = self._read_cursor
        done = 0
        now = clock.now  # local mirror, as in put_many/get_many
        try:
            for i in range(n):
                start_key = keys_list[i]
                if tr_on:
                    tracer.op_begin()
                latency = cpu
                reuse = False
                if cached is not None and (ckeys := cached.keys):
                    if ckeys[0] <= start_key <= ckeys[-1]:
                        reuse = True
                    elif cached.next_leaf is None and start_key > ckeys[-1]:
                        reuse = True
                leaf = cached if reuse else self._descend(start_key)[0]
                cached = leaf
                nresults = 0
                while leaf is not None and nresults < count:
                    latency += self._make_resident(leaf)
                    cached = leaf
                    # Leaf keys are sorted, so the qualifying entries
                    # are the slice from the first key >= start_key.
                    lkeys = leaf.keys
                    pos = bisect_left(lkeys, start_key)
                    take = count - nresults
                    avail = len(lkeys) - pos
                    if avail < take:
                        take = avail
                    if take > 0:
                        nresults += take
                        stats.user_bytes_read += take * key_bytes + sum(
                            leaf.vlens[pos:pos + take])
                        if out is not None:
                            for idx in range(pos, pos + take):
                                out.append((lkeys[idx], Value(
                                    leaf.vseeds[idx], leaf.vlens[idx])))
                    leaf = leaf.next_leaf
                stats.scans += 1
                if tr_on:
                    tracer.op_end("scan", now, latency)
                clock.advance(latency)
                now += latency
                done += 1
                if append is not None:
                    append(latency)
                if until is not None and now >= until:
                    break
        except NoSpaceError as exc:
            exc.ops_done = done
            raise
        finally:
            self._read_cursor = cached
        return done

    def flush(self) -> None:
        """Force a checkpoint."""
        self._ensure_open()
        self._checkpoint()

    def close(self) -> None:
        """Checkpoint and refuse further operations."""
        if self._closed:
            return
        self._checkpoint()
        self._closed = True

    @property
    def stats(self) -> KVStats:
        """Cumulative application-level statistics."""
        return self._stats

    def counters(self) -> dict:
        return {**self._stats.labelled(),
                "btree.cache_hits": self.cache.hits,
                "btree.cache_misses": self.cache.misses}

    @property
    def disk_bytes_used(self) -> int:
        """Filesystem space occupied (the store owns its filesystem)."""
        return self.fs.used_bytes

    # ------------------------------------------------------------------
    # Tree navigation and maintenance
    # ------------------------------------------------------------------
    def _descend(self, key: int) -> tuple[LeafNode, list[tuple[InternalNode, int]]]:
        """Walk to the leaf for *key*, recording the internal path."""
        node = self._root
        path: list[tuple[InternalNode, int]] = []
        while isinstance(node, InternalNode):
            idx = node.child_index(key)
            path.append((node, idx))
            node = node.children[idx]
        return node, path

    def _split_leaf(self, leaf: LeafNode, path: list, appending: bool) -> float:
        right = leaf.split(self.config, appending)
        # The resident left page shrank by the bytes moved to the right
        # sibling; the sibling's own bytes are accounted by its insert.
        self.cache.adjust(-right.nbytes)
        evicted = self.cache.insert(id(right), right)
        latency = self._reconcile_all(evicted)
        self._insert_into_parent(path, right.keys[0], leaf, right)
        return latency

    def _insert_into_parent(self, path: list, separator: int, left, right) -> None:
        if not path:
            self._root = InternalNode([separator], [left, right])
            self._internal_count += 1
            return
        parent, _idx = path[-1]
        parent.insert_child(separator, right)
        if len(parent) > self.config.internal_fanout:
            promoted, new_right = parent.split()
            self._internal_count += 1
            self._insert_into_parent(path[:-1], promoted, parent, new_right)

    def _drop_leaf(self, leaf: LeafNode, path: list) -> None:
        """Unlink an empty leaf (lazy underflow handling, like WT)."""
        prev = self._leaf_before(leaf)
        if prev is not None:
            prev.next_leaf = leaf.next_leaf
        elif self._first_leaf is leaf and leaf.next_leaf is not None:
            self._first_leaf = leaf.next_leaf
        self.cache.forget(id(leaf))
        if leaf.slot >= 0:
            self.pager.free(leaf.slot)
        # Prune upward: an internal node emptied by the removal is
        # removed from its own parent in turn.
        child: object = leaf
        for node, _idx in reversed(path):
            node.remove_child(child)
            if len(node) > 0:
                break
            self._internal_count -= 1
            child = node
        if isinstance(self._root, InternalNode) and len(self._root) == 0:
            self._root = LeafNode()  # pragma: no cover - defensive
            self._first_leaf = self._root
            self.cache.insert(id(self._root), self._root)
        # Collapse degenerate single-child chain at the root.
        while isinstance(self._root, InternalNode) and len(self._root) == 1:
            self._root = self._root.children[0]
            self._internal_count -= 1

    def _leaf_before(self, leaf: LeafNode) -> LeafNode | None:
        node = self._first_leaf
        if node is leaf:
            return None
        while node is not None and node.next_leaf is not leaf:
            node = node.next_leaf
        return node

    # ------------------------------------------------------------------
    # Cache / device interaction
    # ------------------------------------------------------------------
    def _make_resident(self, leaf: LeafNode) -> float:
        """Ensure *leaf* is cached; returns the user-visible latency."""
        if self.cache.touch(id(leaf)):
            return 0.0
        return self._fault_leaf(leaf)

    def _fault_leaf(self, leaf: LeafNode) -> float:
        """Cache-miss path of :meth:`_make_resident` (touch already
        counted): read the page in and reconcile what it evicts."""
        latency = self.pager.read(leaf.slot) if leaf.slot >= 0 else 0.0
        evicted = self.cache.insert(id(leaf), leaf)
        latency += self._reconcile_all(evicted)
        return latency

    def _reconcile_all(self, leaves: list[LeafNode]) -> float:
        latency = 0.0
        for leaf in leaves:
            if leaf.dirty:
                latency += self._reconcile(leaf)
        return latency

    def _reconcile(self, leaf: LeafNode) -> float:
        """Write a dirty leaf copy-on-write (in the foreground: eviction
        is on the op's path) and free its old slot."""
        old_slot = leaf.slot
        slot, latency = self.pager.write_new()
        leaf.slot = slot
        leaf.dirty = False
        if old_slot >= 0:
            self.pager.free(old_slot)
        return latency

    def _journal(self, payload_bytes: int) -> float:
        """Write one record into the pre-allocated journal ring."""
        nbytes = payload_bytes + 32  # record header
        self.journal_bytes += nbytes
        self._journal_since_checkpoint += nbytes
        ring = self.config.journal_ring_bytes
        start = self._journal_offset
        latency = 0.0
        if start + nbytes > ring:
            latency += self.fs.pwrite(self.JOURNAL_FILE, start, ring - start)
            latency += self.fs.pwrite(self.JOURNAL_FILE, 0, nbytes - (ring - start))
        else:
            latency += self.fs.pwrite(self.JOURNAL_FILE, start, nbytes)
        self._journal_offset = (start + nbytes) % ring
        tracer = self.tracer
        if tracer.enabled and latency > 0.0:
            tracer.span("journal_append", "btree", self.clock.now, latency,
                        {"bytes": nbytes})
        return latency

    # ------------------------------------------------------------------
    # Crash recovery (fault injection; DESIGN.md §11)
    # ------------------------------------------------------------------
    def enable_crash_tracking(self) -> None:
        """Symmetric with the LSM store's hook; a no-op here.

        The journal is written synchronously on every update, so no
        per-record tracking is needed to recover — the fleet calls
        this unconditionally on shards scheduled to be killed.
        """

    def crash_and_recover(self) -> tuple[float, set[int]]:
        """Kill the store at the current instant and recover.

        The journal ring is written synchronously on every update, so
        no committed write is lost — recovery charges re-reading the
        journal since the last checkpoint plus the metadata file, and
        restarts with a cold page cache (leaves fault back in on
        demand; leaves that were dirty at the crash carry state the
        journal replay reconstructs, and the next checkpoint
        reconciles them).  Returns ``(recovery_seconds, lost_keys)``
        with *lost_keys* always empty, WiredTiger's contract with a
        synchronous log.  The caller schedules the recovery time; the
        store does not advance the clock itself.
        """
        fs = self.fs
        latency = 0.0
        replay_bytes = min(self._journal_since_checkpoint,
                           self.config.journal_ring_bytes)
        if replay_bytes > 0:
            read_latency = fs.pread(self.JOURNAL_FILE, 0, replay_bytes)
            latency += read_latency
        if fs.exists(self.META_FILE):
            meta_bytes = fs.file_size(self.META_FILE)
            if meta_bytes:
                read_latency = fs.pread(self.META_FILE, 0, meta_bytes)
                latency += read_latency
        # The page cache is volatile: restart cold.  The root leaf of a
        # young tree is pinned back in, mirroring construction.  Its
        # hit/miss counters are the store's, so they outlive the restart.
        hits, misses = self.cache.hits, self.cache.misses
        self.cache = PageCache(self.config.cache_bytes)
        self.cache.hits, self.cache.misses = hits, misses
        if isinstance(self._root, LeafNode):
            self.cache.insert(id(self._root), self._root)
        self._read_cursor = None
        self._checkpoint_pending = False
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("crash_recover", "fault", {
                "journal_bytes": replay_bytes,
                "seconds": latency,
            })
        return latency, set()

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def attach_scheduler(self, scheduler) -> None:
        """Run due checkpoints as scheduled events (DESIGN.md §4.2)."""
        self.scheduler = scheduler

    def _maybe_checkpoint(self) -> None:
        due_by_time = (
            self.clock.now - self._last_checkpoint >= self.config.checkpoint_interval
        )
        due_by_log = self._journal_since_checkpoint >= self.config.checkpoint_log_bytes
        if not (due_by_time or due_by_log):
            return
        if self.scheduler is None:
            self._checkpoint()
        elif not self._checkpoint_pending:
            # The checkpoint "thread" wakes up off the user path: the
            # dirty set it writes back is whatever is dirty when the
            # event fires, not when the trigger crossed.
            self._checkpoint_pending = True
            self.scheduler.schedule(0.0, self._run_scheduled_checkpoint,
                                    label="btree-checkpoint")

    def _run_scheduled_checkpoint(self) -> None:
        self._checkpoint_pending = False
        if not self._closed:
            self._checkpoint()

    def _checkpoint(self) -> None:
        """Write back dirty pages and internal metadata (background).

        The metadata file is rewritten in place and the journal ring is
        logically truncated (space recycled, no reallocation), so the
        store's LBA footprint stays confined to its files.

        The dirty set is written back as one batched pager submission:
        slot alloc/free runs leaf by leaf (recycling is LIFO, so the
        interleaving determines slot placement) and only the device
        writes are deferred — accounting and placement are identical
        to reconciling each leaf separately.
        """
        dirty = self.cache.dirty_pages()
        if dirty:
            slots: list[int] = []
            for leaf in dirty:
                old_slot = leaf.slot
                leaf.slot = self.pager.alloc_slot()
                leaf.dirty = False
                if old_slot >= 0:
                    self.pager.free(old_slot)
                slots.append(leaf.slot)
            self.pager.write_slots(slots, background=True)
        meta_bytes = (
            self._internal_count * self.config.internal_page_bytes
            + self.config.internal_page_bytes
        )
        if not self.fs.exists(self.META_FILE):
            self.fs.create(self.META_FILE)
        current = self.fs.file_size(self.META_FILE)
        if meta_bytes > current:
            self.fs.reserve(self.META_FILE, meta_bytes - current)
        self.fs.pwrite(self.META_FILE, 0, meta_bytes, background=True)
        self._journal_since_checkpoint = 0
        self._last_checkpoint = self.clock.now
        self.checkpoints += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.instant("checkpoint", "btree", {
                "dirty_pages": len(dirty),
                "meta_bytes": meta_bytes,
                "journal_bytes": self.journal_bytes,
            })

    # ------------------------------------------------------------------
    # Helpers / verification
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise StoreClosedError("the B+Tree store is closed")

    def check_invariants(self) -> None:
        """Verify tree ordering and size bounds (test support)."""
        previous_last = None
        leaf = self._first_leaf
        while leaf is not None:
            assert leaf.keys == sorted(leaf.keys), "leaf keys out of order"
            assert len(set(leaf.keys)) == len(leaf.keys), "duplicate keys in leaf"
            if previous_last is not None and leaf.keys:
                assert leaf.keys[0] > previous_last, "leaf chain out of order"
            if leaf.keys:
                previous_last = leaf.keys[-1]
            expected = sum(self.config.leaf_entry_bytes(v) for v in leaf.vlens)
            assert leaf.nbytes == expected, "leaf size accounting drifted"
            leaf = leaf.next_leaf
        self._check_subtree(self._root, None, None)

    def _check_subtree(self, node, low, high) -> None:
        if isinstance(node, LeafNode):
            for key in node.keys:
                assert low is None or key >= low
                assert high is None or key < high
            return
        assert node.keys == sorted(node.keys)
        assert len(node.children) == len(node.keys) + 1
        bounds = [low] + list(node.keys) + [high]
        for i, child in enumerate(node.children):
            self._check_subtree(child, bounds[i], bounds[i + 1])
