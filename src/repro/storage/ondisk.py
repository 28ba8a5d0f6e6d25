"""The on-disk format, declared once (docs/ONDISK.md).

Each structure the storage code reads or writes is one table of rows
``(field, struct code)`` in byte order; every integer is little-endian.
Everything else is derived from the table: the :class:`struct.Struct`,
``pack``, ``unpack`` and where each field sits.  A row whose code ends
in ``x`` is padding: it has an offset but no value.  docs/ONDISK.md
lists the same rows, and ``tests/test_ondisk_format.py`` holds it to
them.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple


class Record:
    """One on-disk structure, derived from its rows."""

    def __init__(self, *rows: Tuple[str, str]) -> None:
        self.rows = rows
        self.struct = struct.Struct("<" + "".join(code for _, code in rows))
        self.size = self.struct.size
        #: field -> (byte offset, struct code), padding included.
        self.offsets: Dict[str, Tuple[int, str]] = {}
        #: (field, first value, values) of every row that has a value.
        self._spans: List[Tuple[str, int, int]] = []
        at = values = 0
        for field, code in rows:
            row = struct.Struct("<" + code)
            self.offsets[field] = (at, code)
            at += row.size
            count = len(row.unpack(bytes(row.size)))
            if count:
                self._spans.append((field, values, count))
                values += count
        #: The fields that carry a value, in byte order.
        self.fields = tuple(field for field, _, _ in self._spans)

    def pack(self, source) -> bytes:
        """The bytes of ``source``, whose attributes the fields name; a
        row of several values takes a sequence."""
        values: list = []
        for field, _, count in self._spans:
            value = getattr(source, field)
            if count == 1:
                values.append(value)
            else:
                values.extend(value)
        return self.struct.pack(*values)

    def unpack(self, raw) -> Dict[str, object]:
        """``{field: value}`` of the first :attr:`size` bytes of ``raw``;
        a row of several values reads as a list."""
        values = self.struct.unpack_from(raw)
        return {
            field: values[first] if count == 1 else list(values[first : first + count])
            for field, first, count in self._spans
        }


#: The image file's header (blockstore.py), padded to ``HEADER_SIZE``.
IMAGE_HEADER = Record(
    ("magic", "8s"), ("version", "I"), ("block_size", "I"), ("num_blocks", "I")
)

#: Block 0 of a volume (layout.py): sixteen u32 slots.  The bitmap,
#: i-node table and data slots place cylinder group 0; the checksum is
#: the sum of the other slots, mod 2**32.
SUPERBLOCK = Record(*((field, "I") for field in """
    magic version state block_size num_blocks inode_count root_ino cg_count
    cg_size cg_inodes bitmap_start bitmap_blocks inode_table_start
    inode_table_blocks data_start checksum""".split()))

#: One i-node of the i-node table (inode.py).
INODE = Record(
    ("type", "H"),
    ("nlink", "H"),
    ("size", "I"),
    ("atime_us", "q"),
    ("mtime_us", "q"),
    ("ctime_us", "q"),
    ("direct", "12I"),
    ("indirect", "I"),
    ("dbl_indirect", "I"),
    ("reserved", "40x"),
)

#: The head of one directory entry (directory.py); the name follows.
DIRECTORY_ENTRY = Record(("ino", "I"), ("name_len", "H"))
