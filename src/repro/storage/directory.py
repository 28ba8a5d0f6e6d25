"""Directory block format.

Directory contents are stored in the directory file's data blocks as a
packed sequence of variable-length entries:

    u32 ino | u16 name_len | name bytes (utf-8)

An entry with ino == 0 never appears — entries are rewritten compactly
on every change, which keeps the format trivially consistent at the cost
of rewriting the directory file.  Directories in this reproduction are
small (the paper's benchmarks use single-component lookups), so the
simplicity is the right trade.
"""

from __future__ import annotations

import struct
from typing import Dict

from repro.errors import StorageError

_ENTRY_HEAD = struct.Struct("<IH")
MAX_NAME_LEN = 255


def pack_entries(entries: Dict[str, int]) -> bytes:
    """Serialize a name -> ino mapping, sorted for determinism."""
    out = bytearray()
    for name, ino in sorted(entries.items()):
        encoded = name.encode("utf-8")
        if not 0 < len(encoded) <= MAX_NAME_LEN:
            raise StorageError(f"bad directory entry name {name!r}")
        if ino == 0:
            raise StorageError("directory entry with ino 0")
        out += _ENTRY_HEAD.pack(ino, len(encoded))
        out += encoded
    return bytes(out)


def unpack_entries(raw: bytes) -> Dict[str, int]:
    """Parse directory file contents back into a name -> ino mapping."""
    entries: Dict[str, int] = {}
    position = 0
    while position + _ENTRY_HEAD.size <= len(raw):
        ino, name_len = _ENTRY_HEAD.unpack_from(raw, position)
        if ino == 0:
            break  # zero padding at the tail of the last block
        position += _ENTRY_HEAD.size
        if position + name_len > len(raw):
            raise StorageError("truncated directory entry")
        name = raw[position : position + name_len].decode("utf-8")
        position += name_len
        if name in entries:
            raise StorageError(f"duplicate directory entry {name!r}")
        entries[name] = ino
    return entries
