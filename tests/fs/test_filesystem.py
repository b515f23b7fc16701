"""Tests for the extent filesystem."""

from __future__ import annotations

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
from tests.conftest import make_tiny_config


@pytest.fixture
def filesystem(tiny_ssd):
    return ExtentFilesystem(BlockDevice(tiny_ssd))


class TestNamespace:
    def test_create_and_exists(self, filesystem):
        filesystem.create("a.sst")
        assert filesystem.exists("a.sst")
        assert filesystem.list_files() == ["a.sst"]

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

    def test_pwrite_extending(self, filesystem):
        filesystem.create("a")
        filesystem.append("a", 4096)
        filesystem.pwrite("a", 4096, 4096)
        assert filesystem.file_size("a") == 8192

    def test_pwrite_past_eof_rejected(self, filesystem):
        filesystem.create("a")
        with pytest.raises(FilesystemError):
            filesystem.pwrite("a", 10, 1)

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

    def test_no_space_raises(self, filesystem, tiny_ssd):
        filesystem.create("a")
        with pytest.raises(NoSpaceError):
            filesystem.append("a", (tiny_ssd.npages + 1) * 4096)


class TestDiscardSemantics:
    def test_nodiscard_keeps_device_mapping(self, tiny_ssd):
        fs = ExtentFilesystem(BlockDevice(tiny_ssd), discard=False)
        fs.create("a")
        fs.append("a", 50 * 4096)
        pages = fs.file_device_pages("a")
        fs.delete("a")
        # Paper setup (nodiscard): stale data still valid on the device.
        assert all(tiny_ssd.is_mapped(int(p)) for p in pages[:10])

    def test_discard_unmaps_on_delete(self, tiny_ssd):
        fs = ExtentFilesystem(BlockDevice(tiny_ssd), discard=True)
        fs.create("a")
        fs.append("a", 50 * 4096)
        pages = fs.file_device_pages("a")
        fs.delete("a")
        assert not any(tiny_ssd.is_mapped(int(p)) for p in pages[:10])


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
        assert len(set(filesystem.file_device_pages("big").tolist())) == 50
        assert filesystem.pread("big", 0, 4096 * 50) > 0
        filesystem.check_invariants()

    def test_pread_many_adds_up_like_the_pread_loop(self):
        """Six extents under one file: a range's device runs are summed
        before the range joins the total, so ``pread_many`` returns the
        very float ``latency += pread(...)`` builds — a flat sum over
        the device runs rounds differently on this data."""
        def build():
            clock = VirtualClock()
            ssd = SSD(make_tiny_config(), clock)
            fs = ExtentFilesystem(BlockDevice(ssd), strategy="first-fit")
            for i, npages in enumerate([3, 5, 4, 9, 6, 2, 7, 11, 5, 3]):
                fs.create(f"f{i}")
                fs.append(f"f{i}", 4096 * npages, background=True)
            for i in range(0, 10, 2):
                fs.delete(f"f{i}")
            fs.create("big")
            fs.append("big", 4096 * 40, background=True)
            clock.advance(1e-3)  # part of the write backlog still queued
            assert ssd.backlog_seconds() > 0
            return fs, ssd

        ranges = [("big", 0, 4096 * 40), ("f1", 100, 5000),
                  ("big", 4096 * 2 + 17, 4096 * 9), ("big", 4096 * 30, 100),
                  ("f3", 0, 0), ("big", 4096 * 6, 4096 * 30)]
        looped, looped_ssd = build()
        assert looped._files["big"].nextents == 6
        total = 0.0
        for name, offset, nbytes in ranges:
            total += looped.pread(name, offset, nbytes)
        batched, batched_ssd = build()
        assert batched.pread_many(*zip(*ranges)) == total
        assert batched_ssd.smart == looped_ssd.smart
        flat = 0.0
        for name, offset, nbytes in ranges:
            for start, npages in looped._byte_range_runs(name, offset, nbytes):
                flat += looped_ssd.read_range(start, npages)
        assert flat != total
        with pytest.raises(FilesystemError):
            batched.pread_many(["f1", "big"], [0, 4096 * 39], [10, 4097])
        with pytest.raises(FileNotFoundError_):
            batched.pread_many(["nope"], [0], [0])


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
        assert fs.list_files() == sorted(model)
        assert fs.used_pages == sum(-(-size // 4096) for size in model.values())
        fs.check_invariants()
