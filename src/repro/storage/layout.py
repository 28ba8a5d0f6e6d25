"""On-disk layout of the UFS-like base file system.

The disk layer "implements an on-disk UFS-compatible file system" (paper
sec. 6.2 / Figure 10).  Since PR 9 the layout is the version-2, FFS-style
format described byte-for-byte in docs/ONDISK.md: a versioned superblock
carrying a clean/dirty state flag, and the metadata organised in
*cylinder groups* — each group holding its own block bitmap, its slice
of the i-node table, and its data blocks, so allocation can keep an
i-node's blocks near its group the way McKusick's FFS does.

One cylinder group (the default, and the geometry every pre-PR-9 volume
used) is the classic arrangement, one group whose span is the whole
device, block 0 included:

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

Either way group ``g`` is group 0 moved ``g`` spans up the device.  The
superblock's bytes are declared in :mod:`repro.storage.ondisk`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.errors import StorageError
from repro.storage.ondisk import INODE, SUPERBLOCK

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
    """The geometry and state of a volume.  The classic one-group layout
    is stored with ``cg_size = cg_inodes = 0``."""

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

    #: The superblock table's first row, a constant.
    magic = MAGIC

    @property
    def checksum(self) -> int:
        """The sum of every other superblock row, mod 2**32."""
        rows = (getattr(self, f) for f in SUPERBLOCK.fields if f != "checksum")
        return sum(rows) & 0xFFFFFFFF

    def pack(self) -> bytes:
        return SUPERBLOCK.pack(self)

    @classmethod
    def unpack(cls, raw: bytes) -> "SuperBlock":
        if len(raw) < SUPERBLOCK.size:
            raise StorageError(
                f"superblock needs {SUPERBLOCK.size} bytes, the block holds {len(raw)}"
            )
        fields = SUPERBLOCK.unpack(raw)
        magic, checksum = fields.pop("magic"), fields.pop("checksum")
        if magic != MAGIC:
            raise StorageError(
                f"bad superblock magic {magic:#x}; device not formatted?"
            )
        if fields["version"] != VERSION:
            raise StorageError(
                f"superblock format version {fields['version']} not supported "
                f"(this build reads version {VERSION})"
            )
        sb = cls(**fields)
        if sb.checksum != checksum:
            raise StorageError("superblock checksum mismatch; torn write?")
        return sb

    def check(self, block_size: int, num_blocks: int) -> None:
        """Refuse this superblock for a device of ``num_blocks`` blocks of
        ``block_size`` bytes unless it describes that device and its
        layout is the one :meth:`compute` derives from its own block
        size, block count, i-node count and group count.  A block count
        short of the device's is refused too: i-nodes may still name the
        blocks past it."""
        if (self.block_size, self.num_blocks) != (block_size, num_blocks):
            raise StorageError(
                f"superblock describes {self.num_blocks} blocks of "
                f"{self.block_size} bytes; the device has {num_blocks} of "
                f"{block_size}"
            )
        expected = SuperBlock.compute(
            self.block_size, self.num_blocks, self.inode_count, self.cg_count
        )
        if dataclasses.replace(expected, state=self.state) != self:
            raise StorageError("superblock geometry contradicts itself")

    @classmethod
    def compute(
        cls,
        block_size: int,
        num_blocks: int,
        inode_count: int,
        cylinder_groups: int = 1,
    ) -> "SuperBlock":
        """Derive a layout for a device of ``num_blocks`` blocks: block 0
        is the superblock, and ``cylinder_groups`` groups of one span each
        hold a bitmap of their span, an i-node table slice and data.  One
        group (the default) spans the whole device, block 0 included;
        more groups follow block 0, and ``inode_count`` is rounded up to
        a multiple of the group count."""
        if cylinder_groups < 1:
            raise StorageError("need at least one cylinder group")
        if block_size < INODE.size:
            raise StorageError(f"a block of {block_size} bytes holds no i-node")
        if inode_count < 2:
            raise StorageError("need i-node 0 (reserved) and the root, i-node 1")
        origin = int(cylinder_groups > 1)  # first block of group 0
        span = (num_blocks - origin) // cylinder_groups
        cg_inodes = -(-inode_count // cylinder_groups)
        bitmap_blocks = -(-span // (block_size * 8))
        inode_table_blocks = -(-cg_inodes // (block_size // INODE.size))
        data_start = 1 + bitmap_blocks + inode_table_blocks
        if data_start >= origin + span:
            raise StorageError(
                f"device too small for {cylinder_groups} cylinder groups: "
                f"each group of {span} blocks needs {data_start - origin} "
                f"metadata blocks"
            )
        return cls(
            block_size=block_size,
            num_blocks=num_blocks,
            bitmap_start=1,
            bitmap_blocks=bitmap_blocks,
            inode_table_start=1 + bitmap_blocks,
            inode_table_blocks=inode_table_blocks,
            inode_count=cg_inodes * cylinder_groups,
            data_start=data_start,
            root_ino=1,
            cg_count=cylinder_groups,
            # The classic layout stores its span and i-nodes per group as 0.
            cg_size=span * origin,
            cg_inodes=cg_inodes * origin,
        )

    # ------------------------------------------------------------- geometry
    def _origin_span(self) -> Tuple[int, int]:
        """(first block of group 0, blocks per group)."""
        return (1, self.cg_size) if self.cg_size else (0, self.num_blocks)

    def groups(self) -> List[CylinderGroup]:
        """The cylinder groups of this layout, in disk order.  The
        classic layout's one group spans block 0, so its bitmap bits are
        the absolute bit-per-block image."""
        origin, span = self._origin_span()
        per_group = self.cg_inodes or self.inode_count
        return [
            CylinderGroup(
                index=g,
                start=origin + g * span,
                end=origin + (g + 1) * span,
                bitmap_start=self.bitmap_start + g * span,
                bitmap_blocks=self.bitmap_blocks,
                inode_start=self.inode_table_start + g * span,
                inode_blocks=self.inode_table_blocks,
                ino_base=g * per_group,
                inode_count=per_group,
                data_start=self.data_start + g * span,
            )
            for g in range(self.cg_count)
        ]

    def group_of_ino(self, ino: int) -> int:
        return ino // (self.cg_inodes or self.inode_count)

    def is_data_block(self, index: int) -> bool:
        """Whether ``index`` is inside some group's data region — the
        only blocks the allocator may hand out."""
        origin, span = self._origin_span()
        g, within = divmod(index - origin, span)
        return 0 <= g < self.cg_count and within >= self.data_start - origin
