"""On-disk layout of the UFS-like base file system.

The disk layer "implements an on-disk UFS-compatible file system" (paper
sec. 6.2 / Figure 10).  Since PR 9 the layout is the version-2, FFS-style
format described byte-for-byte in docs/ONDISK.md: a versioned superblock
carrying a clean/dirty state flag, and the metadata organised in
*cylinder groups* — each group holding its own block bitmap, its slice
of the i-node table, and its data blocks, so allocation can keep an
i-node's blocks near its group the way McKusick's FFS does.

With one cylinder group (the default, and the geometry every pre-PR-9
volume used) the layout degenerates to the classic arrangement and is
*behaviour-identical* to the legacy format:

    block 0                superblock
    blocks 1..B            block allocation bitmap (whole device)
    blocks B+1..B+I        i-node table
    blocks B+I+1..         data blocks

With ``G > 1`` groups, block 0 is still the superblock and the rest of
the device is carved into G equal regions of ``cg_size`` blocks:

    group g = blocks 1+g*cg_size .. 1+(g+1)*cg_size-1
        bitmap blocks          (covering the group's own span)
        i-node table blocks    (i-nodes g*cg_inodes .. (g+1)*cg_inodes-1)
        data blocks

All multi-byte integers are little-endian, packed with :mod:`struct`.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import List

from repro.errors import StorageError

MAGIC = 0x53465331  # "SFS1"
#: On-disk format revision.  Version 2 added the state flag and the
#: cylinder-group geometry (PR 9); older revisions never shipped in a
#: persistent image, so unpack accepts only version 2.
VERSION = 2

#: Superblock ``state`` values: CLEAN is written only by a successful
#: unmount, *after* every other structure is on disk; anything else at
#: mount time means the volume may carry torn metadata and fsck should
#: look (see docs/ONDISK.md "Flush ordering").
STATE_CLEAN = 1
STATE_DIRTY = 2

#: Superblock: magic, version, state, block_size, num_blocks,
#: inode_count, root_ino, cg_count, cg_size, cg_inodes, bitmap_start,
#: bitmap_blocks, inode_table_start, inode_table_blocks, data_start,
#: checksum.  The bitmap/inode-table/data fields describe cylinder
#: group 0; other groups are derived (uniform geometry).
_SUPERBLOCK = struct.Struct("<16I")
_CHECKSUM_MASK = 0xFFFFFFFF


@dataclasses.dataclass(frozen=True)
class CylinderGroup:
    """Geometry of one cylinder group: where its bitmap, i-node table
    slice, and data region live, and which i-nodes it owns."""

    index: int
    start: int          # first block of the group region
    end: int            # one past the last block
    bitmap_start: int
    bitmap_blocks: int
    inode_start: int
    inode_blocks: int
    ino_base: int       # first i-node number owned by this group
    inode_count: int    # i-nodes owned by this group
    data_start: int     # first data block


@dataclasses.dataclass
class SuperBlock:
    block_size: int
    num_blocks: int
    bitmap_start: int
    bitmap_blocks: int
    inode_table_start: int
    inode_table_blocks: int
    inode_count: int
    data_start: int
    root_ino: int
    version: int = VERSION
    state: int = STATE_DIRTY
    cg_count: int = 1
    cg_size: int = 0          # blocks per group region (0 = single-group)
    cg_inodes: int = 0        # i-nodes per group (0 = single-group)

    def pack(self) -> bytes:
        fields = [
            MAGIC,
            self.version,
            self.state,
            self.block_size,
            self.num_blocks,
            self.inode_count,
            self.root_ino,
            self.cg_count,
            self.cg_size,
            self.cg_inodes,
            self.bitmap_start,
            self.bitmap_blocks,
            self.inode_table_start,
            self.inode_table_blocks,
            self.data_start,
        ]
        checksum = sum(fields) & _CHECKSUM_MASK
        return _SUPERBLOCK.pack(*fields, checksum)

    @classmethod
    def unpack(cls, raw: bytes) -> "SuperBlock":
        fields = _SUPERBLOCK.unpack_from(raw)
        if fields[0] != MAGIC:
            raise StorageError(
                f"bad superblock magic {fields[0]:#x}; device not formatted?"
            )
        if fields[1] != VERSION:
            raise StorageError(
                f"superblock format version {fields[1]} not supported "
                f"(this build reads version {VERSION})"
            )
        if sum(fields[:-1]) & _CHECKSUM_MASK != fields[-1]:
            raise StorageError("superblock checksum mismatch; torn write?")
        (
            _magic, version, state, block_size, num_blocks, inode_count,
            root_ino, cg_count, cg_size, cg_inodes, bitmap_start,
            bitmap_blocks, inode_table_start, inode_table_blocks,
            data_start, _checksum,
        ) = fields
        return cls(
            block_size=block_size,
            num_blocks=num_blocks,
            bitmap_start=bitmap_start,
            bitmap_blocks=bitmap_blocks,
            inode_table_start=inode_table_start,
            inode_table_blocks=inode_table_blocks,
            inode_count=inode_count,
            data_start=data_start,
            root_ino=root_ino,
            version=version,
            state=state,
            cg_count=cg_count,
            cg_size=cg_size,
            cg_inodes=cg_inodes,
        )

    @classmethod
    def compute(
        cls,
        block_size: int,
        num_blocks: int,
        inode_count: int,
        cylinder_groups: int = 1,
    ) -> "SuperBlock":
        """Derive a layout for a device of ``num_blocks`` blocks.

        ``cylinder_groups=1`` (the default) produces the classic legacy
        arrangement; larger counts carve the device into uniform group
        regions (``inode_count`` is rounded up to a multiple of the
        group count)."""
        from repro.storage.inode import INODE_SIZE

        bits_per_block = block_size * 8
        inodes_per_block = block_size // INODE_SIZE
        if cylinder_groups < 1:
            raise StorageError("need at least one cylinder group")

        if cylinder_groups == 1:
            bitmap_blocks = (num_blocks + bits_per_block - 1) // bits_per_block
            inode_table_blocks = (
                inode_count + inodes_per_block - 1
            ) // inodes_per_block
            bitmap_start = 1
            inode_table_start = bitmap_start + bitmap_blocks
            data_start = inode_table_start + inode_table_blocks
            if data_start >= num_blocks:
                raise StorageError(
                    f"device too small: metadata needs {data_start} of "
                    f"{num_blocks} blocks"
                )
            return cls(
                block_size=block_size,
                num_blocks=num_blocks,
                bitmap_start=bitmap_start,
                bitmap_blocks=bitmap_blocks,
                inode_table_start=inode_table_start,
                inode_table_blocks=inode_table_blocks,
                inode_count=inode_count,
                data_start=data_start,
                root_ino=1,
                cg_count=1,
                cg_size=0,
                cg_inodes=0,
            )

        cg_inodes = (inode_count + cylinder_groups - 1) // cylinder_groups
        inode_count = cg_inodes * cylinder_groups
        cg_size = (num_blocks - 1) // cylinder_groups
        bitmap_blocks = (cg_size + bits_per_block - 1) // bits_per_block
        inode_table_blocks = (cg_inodes + inodes_per_block - 1) // inodes_per_block
        overhead = bitmap_blocks + inode_table_blocks
        if cg_size <= overhead:
            raise StorageError(
                f"device too small for {cylinder_groups} cylinder groups: "
                f"each group of {cg_size} blocks needs {overhead} metadata "
                f"blocks"
            )
        return cls(
            block_size=block_size,
            num_blocks=num_blocks,
            bitmap_start=1,
            bitmap_blocks=bitmap_blocks,
            inode_table_start=1 + bitmap_blocks,
            inode_table_blocks=inode_table_blocks,
            inode_count=inode_count,
            data_start=1 + overhead,
            root_ino=1,
            cg_count=cylinder_groups,
            cg_size=cg_size,
            cg_inodes=cg_inodes,
        )

    # ------------------------------------------------------------- geometry
    def groups(self) -> List[CylinderGroup]:
        """The cylinder groups of this layout, in disk order.  The
        single-group case describes the whole legacy layout as group 0
        (spanning block 0 so its bitmap bits are the classic absolute
        bit-per-block image)."""
        if self.cg_count == 1:
            return [
                CylinderGroup(
                    index=0,
                    start=0,
                    end=self.num_blocks,
                    bitmap_start=self.bitmap_start,
                    bitmap_blocks=self.bitmap_blocks,
                    inode_start=self.inode_table_start,
                    inode_blocks=self.inode_table_blocks,
                    ino_base=0,
                    inode_count=self.inode_count,
                    data_start=self.data_start,
                )
            ]
        out = []
        overhead = self.bitmap_blocks + self.inode_table_blocks
        for g in range(self.cg_count):
            start = 1 + g * self.cg_size
            out.append(
                CylinderGroup(
                    index=g,
                    start=start,
                    end=start + self.cg_size,
                    bitmap_start=start,
                    bitmap_blocks=self.bitmap_blocks,
                    inode_start=start + self.bitmap_blocks,
                    inode_blocks=self.inode_table_blocks,
                    ino_base=g * self.cg_inodes,
                    inode_count=self.cg_inodes,
                    data_start=start + overhead,
                )
            )
        return out

    def group_of_ino(self, ino: int) -> int:
        if self.cg_count == 1:
            return 0
        return ino // self.cg_inodes

    def is_data_block(self, index: int) -> bool:
        """Whether ``index`` is inside some group's data region — the
        only blocks the allocator may hand out."""
        if self.cg_count == 1:
            return self.data_start <= index < self.num_blocks
        if index < 1:
            return False
        g, within = divmod(index - 1, self.cg_size)
        if g >= self.cg_count:
            return False  # slack blocks past the last group
        return within >= self.bitmap_blocks + self.inode_table_blocks
