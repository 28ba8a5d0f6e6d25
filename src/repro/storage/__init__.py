"""Storage substrate: simulated block devices, pluggable block-store
backends (in-memory and persistent disk images), and the UFS-like
on-disk file system engine used by the disk layer."""

from repro.storage.block_device import BlockDevice
from repro.storage.blockstore import (
    ImageBlockStore,
    MemoryBlockStore,
)
from repro.storage.inode import FileType
from repro.storage.layout import (
    STATE_CLEAN,
    SuperBlock,
)
from repro.storage.volume import Volume

__all__ = [
    "BlockDevice",
    "ImageBlockStore",
    "MemoryBlockStore",
    "FileType",
    "STATE_CLEAN",
    "SuperBlock",
    "Volume",
]
