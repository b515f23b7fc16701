"""Extent filesystem substrate (the ext4-with-nodiscard analogue)."""

from repro.fs.allocator import Extent, ExtentAllocator
from repro.fs.filesystem import ExtentFilesystem

__all__ = ["Extent", "ExtentAllocator", "ExtentFilesystem"]
