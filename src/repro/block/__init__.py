"""OS block layer: the device the filesystem mounts, which counts its
own bytes and, for Fig 4, its per-LBA writes."""

from repro.block.device import BlockDevice

__all__ = [
    "BlockDevice",
]
