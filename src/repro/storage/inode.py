"""I-nodes.

Fixed 128-byte records with 12 direct block pointers, one single-indirect
and one double-indirect pointer — the McKusick-style geometry the paper's
disk layer ("an on-disk UFS compatible file system") implies.
Timestamps are virtual-clock microseconds.
"""

from __future__ import annotations

import dataclasses
import enum
import struct
from typing import List

from repro.errors import StorageError

INODE_SIZE = 128
NUM_DIRECT = 12

#: type, nlink, size, atime, mtime, ctime, 12 direct, indirect, dbl_indirect
_INODE = struct.Struct("<HHIqqq12III" + "40x")
assert _INODE.size == INODE_SIZE, _INODE.size


class FileType(enum.IntEnum):
    FREE = 0
    REGULAR = 1
    DIRECTORY = 2


@dataclasses.dataclass
class Inode:
    """In-memory image of one on-disk i-node.  A type value that is no
    :class:`FileType` stays the plain ``int`` read from the image, so the
    volume mounts and fsck can report and clear it."""

    ino: int
    type: FileType = FileType.FREE
    nlink: int = 0
    size: int = 0
    atime_us: int = 0
    mtime_us: int = 0
    ctime_us: int = 0
    direct: List[int] = dataclasses.field(default_factory=lambda: [0] * NUM_DIRECT)
    indirect: int = 0
    dbl_indirect: int = 0

    def pack(self) -> bytes:
        if len(self.direct) != NUM_DIRECT:
            raise StorageError("direct pointer array corrupted")
        return _INODE.pack(
            int(self.type),
            self.nlink,
            self.size,
            self.atime_us,
            self.mtime_us,
            self.ctime_us,
            *self.direct,
            self.indirect,
            self.dbl_indirect,
        )

    @classmethod
    def unpack(cls, ino: int, raw: bytes) -> "Inode":
        fields = _INODE.unpack_from(raw)
        try:
            ftype = FileType(fields[0])
        except ValueError:
            ftype = fields[0]
        return cls(
            ino=ino,
            type=ftype,
            nlink=fields[1],
            size=fields[2],
            atime_us=fields[3],
            mtime_us=fields[4],
            ctime_us=fields[5],
            direct=list(fields[6 : 6 + NUM_DIRECT]),
            indirect=fields[6 + NUM_DIRECT],
            dbl_indirect=fields[7 + NUM_DIRECT],
        )

    def reset(self, ftype: FileType) -> None:
        """Become an empty i-node of ``ftype`` — no links, no bytes, no
        blocks — the state an allocation starts from and a release
        (``FileType.FREE``) leaves behind.  Timestamps are the caller's."""
        self.type = ftype
        self.nlink = 0
        self.size = 0
        self.direct = [0] * NUM_DIRECT
        self.indirect = 0
        self.dbl_indirect = 0

    @property
    def is_dir(self) -> bool:
        return self.type is FileType.DIRECTORY

    @property
    def allocated(self) -> bool:
        return self.type is not FileType.FREE


def max_file_blocks(block_size: int) -> int:
    """Largest file representable with this geometry, in blocks."""
    pointers_per_block = block_size // 4
    return NUM_DIRECT + pointers_per_block + pointers_per_block * pointers_per_block
