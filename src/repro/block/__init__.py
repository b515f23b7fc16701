"""OS block layer: the device the filesystem mounts, iostat, blktrace."""

from repro.block.blktrace import BlkTrace
from repro.block.device import BlockDevice
from repro.block.iostat import IOStat

__all__ = [
    "BlockDevice",
    "IOStat",
    "BlkTrace",
]
