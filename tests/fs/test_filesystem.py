"""Tests for the extent filesystem."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.device import BlockDevice
from repro.errors import (
    FileExistsError_,
    FileNotFoundError_,
    FilesystemError,
    NoSpaceError,
)
from repro.flash.ssd import SSD
from repro.fs.filesystem import ExtentFilesystem
from repro.core.clock import VirtualClock
from tests.conftest import make_tiny_config, mapped


def device_pages(fs, name: str) -> list[int]:
    """Every device page backing the file, in file order."""
    runs = fs.byte_runs(name, 0, fs.file_size(name))
    return [page for start, npages in runs for page in range(start, start + npages)]


@pytest.fixture
def filesystem(tiny_ssd):
    return ExtentFilesystem(BlockDevice(tiny_ssd))


class TestNamespace:
    def test_create_and_exists(self, filesystem):
        filesystem.create("a.sst")
        assert filesystem.exists("a.sst")
        assert not filesystem.exists("b.sst")

    def test_duplicate_create_rejected(self, filesystem):
        filesystem.create("a")
        with pytest.raises(FileExistsError_):
            filesystem.create("a")

    def test_missing_file_rejected(self, filesystem):
        with pytest.raises(FileNotFoundError_):
            filesystem.delete("nope")
        with pytest.raises(FileNotFoundError_):
            filesystem.append("nope", 10)

    def test_delete_frees_space(self, filesystem):
        filesystem.create("a")
        filesystem.append("a", 100 * 4096)
        used = filesystem.used_pages
        assert used == 100
        filesystem.delete("a")
        assert filesystem.used_pages == 0
        filesystem.check_invariants()


class TestIO:
    def test_append_allocates_pages(self, filesystem):
        filesystem.create("a")
        filesystem.append("a", 4096 * 3 + 10)
        assert filesystem.file_size("a") == 4096 * 3 + 10
        assert filesystem.used_pages == 4
        filesystem.check_invariants()

    def test_small_appends_rewrite_tail_page(self, filesystem, tiny_ssd):
        filesystem.create("a")
        filesystem.append("a", 100)
        before = tiny_ssd.smart.host_bytes_written
        filesystem.append("a", 100)  # same page again: read-modify-write
        assert tiny_ssd.smart.host_bytes_written == before + 4096

    def test_pwrite_in_place(self, filesystem):
        filesystem.create("a")
        filesystem.append("a", 8192)
        filesystem.pwrite("a", 4096, 100)
        assert filesystem.file_size("a") == 8192
        assert filesystem.used_pages == 2  # no growth

    def test_pwrite_extending(self, filesystem, tiny_ssd):
        """An extending ``pwrite`` is refused; ``reserve`` grows the file
        and the ``pwrite`` then writes only the new page, in one request."""
        filesystem.create("a")
        filesystem.append("a", 4096)
        with pytest.raises(FilesystemError, match="beyond EOF"):
            filesystem.pwrite("a", 4096, 4096)
        assert filesystem.file_size("a") == 4096
        filesystem.reserve("a", 4096)
        before = tiny_ssd.smart.as_dict()
        filesystem.pwrite("a", 4096, 4096)
        assert filesystem.file_size("a") == 8192
        assert tiny_ssd.smart.host_write_requests == before["host_write_requests"] + 1
        assert tiny_ssd.smart.host_bytes_written == before["host_bytes_written"] + 4096
        filesystem.check_invariants()

    def test_pwrite_past_eof_rejected(self, filesystem, tiny_ssd):
        """``pwrite`` overwrites; a range ending past EOF is refused with
        nothing written (``reserve`` or ``append`` grow a file)."""
        filesystem.create("a")
        filesystem.create("b")
        filesystem.append("b", 100)
        filesystem.create("c")
        filesystem.append("c", 4096)
        before = (tiny_ssd.smart.as_dict(), filesystem.used_pages)
        for name, offset, nbytes in (("a", 10, 1),      # empty file
                                     ("b", 50, 4096),   # straddles EOF
                                     ("c", 4096, 4096),  # starts at EOF
                                     ("c", -1, 2)):
            with pytest.raises(FilesystemError, match="beyond EOF"):
                filesystem.pwrite(name, offset, nbytes)
        assert (tiny_ssd.smart.as_dict(), filesystem.used_pages) == before
        assert [filesystem.file_size(n) for n in "abc"] == [0, 100, 4096]
        filesystem.pwrite("c", 0, 4096)  # the whole file: served
        assert tiny_ssd.smart.host_write_requests == before[0]["host_write_requests"] + 1

    def test_pread_past_eof_rejected(self, filesystem):
        filesystem.create("a")
        filesystem.append("a", 100)
        with pytest.raises(FilesystemError):
            filesystem.pread("a", 50, 100)

    def test_latencies_are_positive(self, filesystem):
        filesystem.create("a")
        wlat = filesystem.append("a", 4096 * 4)
        rlat = filesystem.pread("a", 0, 4096)
        assert wlat > 0
        assert rlat > 0

    @pytest.mark.parametrize("call", [
        pytest.param(lambda fs, n: fs.append("a", n), id="append"),
        pytest.param(lambda fs, n: fs.reserve("a", n), id="reserve"),
        pytest.param(lambda fs, n: fs.pwrite("a", 4096, n), id="pwrite"),
        pytest.param(lambda fs, n: fs.pread("a", 4096, n), id="pread"),
        pytest.param(lambda fs, n: fs.byte_runs("a", 4096, n), id="byte_runs"),
    ])
    def test_negative_length_refused_zero_a_no_op(self, filesystem, tiny_ssd,
                                                  call):
        filesystem.create("a")
        filesystem.append("a", 8192)

        def state():
            return (filesystem.file_size("a"), filesystem.used_pages,
                    tiny_ssd.smart.as_dict())

        before = state()
        for nbytes in (-1, -100):
            with pytest.raises(FilesystemError, match="negative"):
                call(filesystem, nbytes)
        assert call(filesystem, 0) in (0.0, None, [])
        assert state() == before

    def test_no_space_raises(self, filesystem, tiny_ssd):
        filesystem.create("a")
        with pytest.raises(NoSpaceError):
            filesystem.append("a", (tiny_ssd.npages + 1) * 4096)


class TestDiscardSemantics:
    def test_nodiscard_keeps_device_mapping(self, tiny_ssd):
        fs = ExtentFilesystem(BlockDevice(tiny_ssd))
        fs.create("a")
        fs.append("a", 50 * 4096)
        pages = device_pages(fs, "a")
        fs.delete("a")
        # Paper setup (nodiscard): stale data still valid on the device.
        assert mapped(tiny_ssd)[pages].all()


class TestFragmentation:
    def test_file_survives_fragmented_allocation(self, filesystem):
        """Interleaved create/delete fragments free space; files must
        still map offsets to pages correctly."""
        for i in range(6):
            filesystem.create(f"f{i}")
            filesystem.append(f"f{i}", 4096 * 20)
        for i in range(0, 6, 2):
            filesystem.delete(f"f{i}")
        filesystem.create("big")
        filesystem.append("big", 4096 * 50)
        assert filesystem.file_size("big") == 4096 * 50
        assert len(set(device_pages(filesystem, "big"))) == 50
        assert filesystem.pread("big", 0, 4096 * 50) > 0
        filesystem.check_invariants()

    def test_read_runs_adds_up_like_the_pread_loop(self):
        """Thirty-two extents under one file: a range's device runs are
        summed before the range joins the total, so ``read_runs`` over
        the ranges' ``byte_runs`` returns the very float ``latency +=
        pread(...)`` builds — a flat sum over the device runs rounds
        differently on this data."""
        def build():
            clock = VirtualClock()
            ssd = SSD(make_tiny_config(), clock)
            fs = ExtentFilesystem(BlockDevice(ssd))
            for i, npages in enumerate([3, 5, 4, 9, 6, 2, 7, 11, 5, 3]):
                fs.create(f"f{i}")
                fs.append(f"f{i}", 4096 * npages, background=True)
            # The rest in one-page files; every other one and every
            # other f-file deleted leave holes of one to seven pages.
            pads = fs.allocator.free_pages
            for i in range(pads):
                fs.create(f"pad{i}")
                fs.reserve(f"pad{i}", 1)
            for name in [f"f{i}" for i in range(0, 10, 2)] + [
                    f"pad{i}" for i in range(0, pads, 2)]:
                fs.delete(name)
            fs.create("big")
            fs.append("big", 4096 * 40, background=True)
            clock.advance(1e-3)  # part of the write backlog still queued
            assert ssd.backlog_seconds() > 0
            return fs, ssd

        ranges = [("big", 0, 4096 * 40), ("f1", 100, 5000),
                  ("big", 4096 * 2 + 17, 4096 * 9), ("big", 4096 * 30, 100),
                  ("f3", 0, 0), ("big", 4096 * 6, 4096 * 30)]
        looped, looped_ssd = build()
        assert len(looped._files["big"].extents) == 32
        total = 0.0
        for name, offset, nbytes in ranges:
            total += looped.pread(name, offset, nbytes)
        batched, batched_ssd = build()
        groups = [batched.byte_runs(*read) for read in ranges]
        assert [len(group) for group in groups] == [32, 1, 6, 1, 0, 25]
        assert batched.read_runs(groups) == total
        assert batched_ssd.smart == looped_ssd.smart
        assert batched.read_runs([]) == batched.read_runs([[]]) == 0.0
        assert batched_ssd.smart == looped_ssd.smart
        flat = 0.0
        for group in groups:
            for start, npages in group:
                flat += looped_ssd.read_runs([start], [npages])[0]
        assert flat != total
        with pytest.raises(FilesystemError):
            batched.byte_runs("big", 4096 * 39, 4097)
        with pytest.raises(FileNotFoundError_):
            batched.byte_runs("nope", 0, 0)


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["create", "append", "delete"]),
                st.integers(0, 4),
                st.integers(1, 30_000),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_fs_matches_reference_model(self, ops):
        clock = VirtualClock()
        ssd = SSD(make_tiny_config(), clock)
        fs = ExtentFilesystem(BlockDevice(ssd))
        model: dict[str, int] = {}
        for kind, idx, size in ops:
            name = f"f{idx}"
            if kind == "create" and name not in model:
                fs.create(name)
                model[name] = 0
            elif kind == "append" and name in model:
                try:
                    fs.append(name, size)
                except NoSpaceError:
                    continue
                model[name] += size
            elif kind == "delete" and name in model:
                fs.delete(name)
                del model[name]
        for name, expected in model.items():
            assert fs.file_size(name) == expected
            if expected:
                assert fs.pread(name, 0, expected) > 0
        assert [n for n in (f"f{i}" for i in range(5)) if fs.exists(n)] == \
            sorted(model)
        assert fs.used_pages == sum(-(-size // 4096) for size in model.values())
        fs.check_invariants()


def page_runs(pages: list[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive device pages, in list order."""
    runs: list[tuple[int, int]] = []
    for page in pages:
        if runs and runs[-1][0] + runs[-1][1] == page:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((page, 1))
    return runs


class TestExtentTablesAgainstPageLists:
    """An independent reference for the extent tables: each file is the
    list of device pages behind its pages (file page i maps to
    ``pages[i]``), grown by the extents the allocator grants.  Shares
    no code with ``src/``."""

    @pytest.mark.parametrize("seed", range(12))
    def test_byte_runs_match_the_page_lists(self, seed):
        rng = random.Random(seed)
        fs = ExtentFilesystem(BlockDevice(SSD(make_tiny_config(),
                                              VirtualClock())))
        # Holes of one to seven pages over half the device, so that a
        # grant spans extents and a file's extents interleave.
        pads = 0
        while fs.used_pages < fs.allocator.npages // 2:
            fs.create(f"pad{pads}")
            fs.reserve(f"pad{pads}", 4096 * (1 + pads % 7))
            pads += 1
        for i in range(0, pads, 2):
            fs.delete(f"pad{i}")
        grants: list[tuple[int, int]] = []
        alloc = fs.allocator.alloc

        def spy(npages):
            got = alloc(npages)
            grants.extend(got)
            return got

        fs.allocator.alloc = spy
        sizes: dict[str, int] = {}
        pages: dict[str, list[int]] = {}
        for _ in range(60):
            name = f"f{rng.randrange(4)}"
            kind = rng.choice(["append", "append", "reserve", "delete"])
            if kind == "delete":
                if name in sizes:
                    fs.delete(name)
                    del sizes[name], pages[name]
                continue
            if name not in sizes:
                fs.create(name)
                sizes[name], pages[name] = 0, []
            nbytes = rng.randint(1, 40_000)
            grants.clear()
            try:
                getattr(fs, kind)(name, nbytes)
            except NoSpaceError:
                assert not grants
                continue
            sizes[name] += nbytes
            pages[name] += [page for start, npages in grants
                            for page in range(start, start + npages)]
            assert len(pages[name]) == -(-sizes[name] // 4096)
            fs.check_invariants()
            for other, size in sizes.items():
                for _ in range(3 if size else 0):
                    offset = rng.randrange(size)
                    nbytes = rng.randint(1, size - offset)
                    first = offset // 4096
                    last = -(-(offset + nbytes) // 4096)
                    assert fs.byte_runs(other, offset, nbytes) == \
                        page_runs(pages[other][first:last])
