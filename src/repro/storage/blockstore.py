"""Pluggable block-store backends for :class:`~repro.storage.block_device.BlockDevice`.

The simulated device charges latency, enforces geometry, and injects
faults; *where the block bytes live* is this module's concern.  The
``BlockStore`` contract is deliberately tiny so a backend stays dumb:

* ``read(index, count=1)`` — ``count`` contiguous blocks starting at
  ``index`` as one buffer, never-written blocks zero-filled; a single
  never-written block may come back as ``None`` (the device
  substitutes its interned zero block);
* ``write(index, data)`` — one or more whole blocks starting at
  ``index``.  ``data`` may be any buffer (``bytes``, ``bytearray``,
  ``memoryview``): the store materializes exactly once at its own
  boundary, per the zero-copy ownership contract (DESIGN.md sec. 7) —
  which is what lets a page snapshot ride a ``memoryview`` all the way
  into the image file without an intermediate copy;
* ``flush()`` / ``close()`` — durability points (no-ops in memory).

Two backends:

* :class:`MemoryBlockStore` — the dict the device always used; volumes
  on it are exactly as fast and exactly as volatile as before.
* :class:`ImageBlockStore` — a sparse disk-image *file*: a one-page
  header (magic, version, geometry) followed by the raw block array.
  A volume formatted onto it (superblock, cylinder groups, i-node
  table — see docs/ONDISK.md) survives process restarts, and multi-GB
  volumes cost disk space, not RAM.
"""

from __future__ import annotations

import os
import struct
from typing import Dict, Optional

from repro.errors import DeviceError

#: Image header: magic, format version, block size, block count.  The
#: header owns the first :data:`HEADER_SIZE` bytes of the file; block
#: ``i`` lives at ``HEADER_SIZE + i * block_size``.
IMAGE_MAGIC = b"SPRIMG1\x00"
IMAGE_VERSION = 1
HEADER_SIZE = 4096
_HEADER = struct.Struct("<8sIII")


class BlockStore:
    """Contract for block backends (see module docstring): a backend
    defines ``read`` and ``write``; ``flush`` and ``close`` default to
    no-ops.

    ``num_blocks`` and ``block_size`` are fixed at construction; the
    owning device adopts them.
    """

    num_blocks: int
    block_size: int

    def flush(self) -> None:
        """Push buffered writes to the backing medium (if any)."""

    def close(self) -> None:
        """Flush and release the backing medium."""

    @property
    def persistent(self) -> bool:
        """Whether blocks survive the death of this process."""
        return False


class MemoryBlockStore(BlockStore):
    """The classic in-memory backend: a dict of materialized blocks.

    Unwritten blocks read as ``None`` so the device can hand out its
    interned zero page without a copy.
    """

    __slots__ = ("num_blocks", "block_size", "_blocks")

    def __init__(self, num_blocks: int, block_size: int) -> None:
        self.num_blocks = num_blocks
        self.block_size = block_size
        self._blocks: Dict[int, bytes] = {}

    def read(self, index: int, count: int = 1) -> Optional[bytes]:
        blocks = self._blocks
        if count == 1:  # nothing to join: the stored block, or None
            return blocks.get(index)
        zero = bytes(self.block_size)
        return b"".join(
            [blocks.get(i, zero) for i in range(index, index + count)]
        )

    def write(self, index: int, data) -> None:
        # Materialize exactly once at the storage boundary: ``data`` may
        # be a memoryview riding down from a page snapshot.
        bs = self.block_size
        if len(data) <= bs:  # nothing to split
            self._blocks[index] = bytes(data)
            return
        for i in range(len(data) // bs):
            self._blocks[index + i] = bytes(data[i * bs : (i + 1) * bs])


class ImageBlockStore(BlockStore):
    """A file-backed block array — the persistent half of the volume
    format (docs/ONDISK.md).

    The image is created sparse (``truncate`` to its full logical size),
    so untouched regions of a large volume cost no disk space and read
    as zeros.  Blocks move by positional I/O on the image's descriptor:
    ``read`` is one ``os.pread``, ``write`` hands any buffer straight
    to one ``os.pwrite`` — no seek, no userspace buffer, no intermediate
    ``bytes()`` copy.  The buffered file object is only the header's.
    """

    __slots__ = ("num_blocks", "block_size", "path", "_file", "_fd", "_closed")

    def __init__(self, path: str, file, num_blocks: int, block_size: int) -> None:
        self.path = path
        self._file = file
        self._fd = file.fileno()
        self.num_blocks = num_blocks
        self.block_size = block_size
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    @classmethod
    def create(cls, path: str, num_blocks: int, block_size: int) -> "ImageBlockStore":
        """Format a new image file (truncating any existing one)."""
        if num_blocks <= 0 or block_size <= 0:
            raise DeviceError("image geometry must be positive")
        fh = open(path, "w+b")
        header = bytearray(HEADER_SIZE)
        _HEADER.pack_into(header, 0, IMAGE_MAGIC, IMAGE_VERSION, block_size, num_blocks)
        fh.write(header)
        fh.truncate(HEADER_SIZE + num_blocks * block_size)
        fh.flush()
        return cls(path, fh, num_blocks, block_size)

    @classmethod
    def open(cls, path: str) -> "ImageBlockStore":
        """Open an existing image, reading geometry from its header."""
        try:
            fh = open(path, "r+b")
        except OSError as exc:
            raise DeviceError(f"cannot open image {path!r}: {exc}") from exc
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            fh.close()
            raise DeviceError(f"image {path!r} is truncated (no header)")
        magic, version, block_size, num_blocks = _HEADER.unpack(raw)
        if magic != IMAGE_MAGIC:
            fh.close()
            raise DeviceError(f"image {path!r}: bad magic {magic!r}")
        if version > IMAGE_VERSION:
            fh.close()
            raise DeviceError(
                f"image {path!r}: format version {version} is newer than "
                f"this build understands ({IMAGE_VERSION})"
            )
        expected = HEADER_SIZE + num_blocks * block_size
        actual = os.fstat(fh.fileno()).st_size
        if actual < expected:
            fh.close()
            raise DeviceError(
                f"image {path!r} is short: {actual} bytes, header "
                f"promises {expected}"
            )
        return cls(path, fh, num_blocks, block_size)

    # ------------------------------------------------------------------ I/O
    def read(self, index: int, count: int = 1) -> Optional[bytes]:
        if self._closed:
            raise DeviceError(f"image {self.path!r} is closed")
        bs = self.block_size
        return os.pread(self._fd, count * bs, HEADER_SIZE + index * bs)

    def write(self, index: int, data) -> None:
        if self._closed:
            raise DeviceError(f"image {self.path!r} is closed")
        at = HEADER_SIZE + index * self.block_size
        if os.pwrite(self._fd, data, at) != len(data):
            raise DeviceError(f"short write to image {self.path!r} at block {index}")

    def flush(self) -> None:
        # Blocks bypass the file object, so its buffer is empty here;
        # this is the one durability hook, where an ``os.fsync`` of the
        # image would go (ROADMAP item 1).
        if not self._closed:
            self._file.flush()

    def close(self) -> None:
        if not self._closed:
            self._file.flush()
            self._file.close()
            self._closed = True

    @property
    def persistent(self) -> bool:
        return True
