"""OS block layer: the device the filesystem mounts, and blktrace."""

from repro.block.blktrace import BlkTrace
from repro.block.device import BlockDevice

__all__ = [
    "BlockDevice",
    "BlkTrace",
]
