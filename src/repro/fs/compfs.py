"""COMPFS — the compression file system layer (paper sec. 4.2.1).

"Suppose we would like to implement a compression file system (COMPFS).
We can use COMPFS to save disk space by compressing all data before
writing it out and by uncompressing all data read from the disk.  Since
we are not interested in rewriting an on-disk file system, we can
implement COMPFS as a layer on top of a base file system (SFS)."

The two design points the paper walks through are both implemented and
selected per instance:

* ``coherent=False`` — **case 1 (Figure 5)**: COMPFS accesses the
  underlying file through the plain file interface and caches plaintext,
  written back on ``sync`` (a length change too).  Mappings/reads of file_COMP and direct
  access to file_SFS are *not* coherent: a direct write to the
  underlying file leaves COMPFS's plaintext cache stale (the staleness
  window Figure 5 warns about, and which
  ``benchmarks/bench_fig05_compfs_case1.py`` demonstrates).
* ``coherent=True`` — **case 2 (Figure 6)**: COMPFS additionally acts
  as a cache manager for the underlying file by binding to it (the
  C3-P3 connection).  Direct writes to file_SFS now flush COMPFS's
  plaintext cache, and COMPFS writes through immediately, so all views
  stay coherent.

On-disk format of the underlying file.  The plaintext is compressed in
clusters of :data:`CLUSTER_PAGES` pages, each on its own, so a read
decodes one cluster and a write encodes only the clusters it dirtied.
Cluster ``i`` lives in a fixed slot at byte ``i * SLOT_BYTES`` below: a
header (:data:`MAGIC`, stream length, plaintext length) and a zlib
stream, which together never exceed :data:`STREAM_MAX` bytes, even for
data that does not compress.  The rest of the slot is never written, so
the file system below leaves it a hole and allocates nothing for it.  A
slot that was never written (all zeros) is a cluster of zeros.  The
length below says the plaintext length (:func:`stored_length`): the
last slot ends ``STREAM_MAX`` bytes plus the last cluster's plaintext
bytes in, past any stream, so a truncate cuts no stream it keeps.  A
length then costs one ``get_length`` below; read from the last slot's
header it would cost a ``read`` more.

COMPFS is a :class:`~repro.fs.base.TransformLayer`, as CRYPTFS is: its
data hooks and pager side are the shared ones, and what is its own is
the cache's ``decode`` / ``encode`` of a cluster (:class:`CompCache`)
and the cluster rounding of a range changed below (:class:`CompOps`).
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict

from repro.errors import FsError
from repro.types import PAGE_SIZE, AccessRights

from repro.fs.base import (
    LayerDirectory,
    LayerFile,
    TransformCache,
    TransformLayer,
    TransformOps,
)

#: Pages of plaintext compressed together.
CLUSTER_PAGES = 16
CLUSTER_BYTES = CLUSTER_PAGES * PAGE_SIZE
#: Room for a cluster's header and stream: a whole cluster that does not
#: compress grows by less than a page.
STREAM_MAX = CLUSTER_BYTES + PAGE_SIZE
#: Bytes below per cluster: the stream's room, then room for the length.
SLOT_BYTES = STREAM_MAX + CLUSTER_BYTES
SLOT_PAGES = SLOT_BYTES // PAGE_SIZE

MAGIC = b"CZ02"
#: Magic, stream length, plaintext length.
_HEADER = struct.Struct("<4sII")


def stored_length(length: int) -> int:
    """The length below that holds ``length`` plaintext bytes."""
    if length == 0:
        return 0
    cluster, tail = divmod(length - 1, CLUSTER_BYTES)
    return cluster * SLOT_BYTES + STREAM_MAX + tail + 1


def plain_length(stored: int) -> int:
    """The plaintext length a length below says (:func:`stored_length`'s
    inverse)."""
    cluster, within = divmod(stored, SLOT_BYTES)
    return cluster * CLUSTER_BYTES + max(0, within - STREAM_MAX)


def pack_cluster(plaintext: bytes) -> bytes:
    """One cluster's header and stream."""
    stream = zlib.compress(plaintext, 6)
    return _HEADER.pack(MAGIC, len(stream), len(plaintext)) + stream


def unpack_cluster(slot: bytes) -> bytes:
    """The plaintext a slot (from its start, at least its header and
    stream) holds; b"" for a slot never written."""
    head = bytes(slot[: _HEADER.size])
    if not any(head):
        return b""
    if len(head) < _HEADER.size:
        raise FsError("slot too short for a COMPFS cluster header")
    magic, length, plain_size = _HEADER.unpack(head)
    if magic != MAGIC:
        raise FsError("slot does not hold a COMPFS cluster")
    end = _HEADER.size + length
    if len(slot) < end:
        raise FsError("COMPFS cluster stream cut short")
    try:
        plaintext = zlib.decompress(slot[_HEADER.size : end])
    except zlib.error as exc:
        raise FsError(f"corrupt COMPFS cluster stream: {exc}") from None
    if len(plaintext) != plain_size:
        raise FsError(
            f"COMPFS cluster header claims {plain_size} bytes, got {len(plaintext)}"
        )
    return plaintext


def write_image(under_file, plaintext: bytes) -> None:
    """Store ``plaintext`` in ``under_file`` in COMPFS's format, as a
    direct client of the file below would: its length, then a cluster
    per slot."""
    under_file.set_length(stored_length(len(plaintext)))
    for start in range(0, len(plaintext), CLUSTER_BYTES):
        under_file.write(
            start // CLUSTER_BYTES * SLOT_BYTES,
            pack_cluster(plaintext[start : start + CLUSTER_BYTES]),
        )


class CompCache(TransformCache):
    """The plaintext cache of one file, faulted and written back a
    cluster at a time.  A fault brings each cluster it touches in whole
    (a page-in of the slot's first page, then of the rest of its stream
    if the header says there is more); a page dirty here is newer than
    its slot and stays.  ``encode`` compresses each dirty cluster up to
    the file's length, faulting what of it is not here first."""

    __slots__ = ()

    def fault(self, first: int, access: AccessRights, count: int = 1):
        store = self.store
        pager = self.pager()
        last = (first + count - 1) // CLUSTER_PAGES
        for cluster in range(first // CLUSTER_PAGES, last + 1):
            base = cluster * SLOT_BYTES
            slot = pager.page_in(base, PAGE_SIZE, access)
            if len(slot) >= _HEADER.size:
                # The header says how far into its room the stream runs.
                end = min(_HEADER.size + _HEADER.unpack_from(slot)[1], STREAM_MAX)
                if end > PAGE_SIZE:
                    rest = -(-end // PAGE_SIZE) * PAGE_SIZE - PAGE_SIZE
                    slot = b"".join((slot, pager.page_in(base + PAGE_SIZE, rest, access)))
            plaintext = self.decode(cluster, slot)
            start = cluster * CLUSTER_PAGES
            dirty = store.dirty_indices(start * PAGE_SIZE, CLUSTER_BYTES)
            if not dirty:
                store.install_run(start, CLUSTER_PAGES, plaintext, access)
                continue
            for index in range(start, start + CLUSTER_PAGES):
                if index not in dirty:
                    at = (index - start) * PAGE_SIZE
                    store.install(index, plaintext[at : at + PAGE_SIZE], access)
        return store.get(first)

    def decode(self, cluster: int, slot: bytes) -> bytes:
        plaintext = unpack_cluster(slot)
        if plaintext:
            self.world.charge.decompress(_HEADER.unpack_from(slot)[1])
        return plaintext

    def encode(self, indices) -> Dict[int, bytes]:
        length = self.state.length
        if length is None:
            length = self.manager.file_length(self.state)
        pages = {}
        clusters = {i // CLUSTER_PAGES for i in indices if i * PAGE_SIZE < length}
        for cluster in sorted(clusters):
            start = cluster * CLUSTER_BYTES
            # A cluster is encoded whole: its pages that are not here
            # (an append to a file whose cache is cold) come up first.
            size = min(CLUSTER_BYTES, length - start)
            self.prefetch(start, size, AccessRights.READ_WRITE)
            plaintext = self.store.read(start, size, self.fault)
            self.world.charge.compress(size)
            stream = pack_cluster(plaintext)
            base = cluster * SLOT_PAGES
            for at in range(0, len(stream), PAGE_SIZE):
                pages[base + at // PAGE_SIZE] = stream[at : at + PAGE_SIZE]
        return pages


class CompOps(TransformOps):
    """A change below to any byte of a slot's stream room changes its
    whole cluster; a change only to its length room (a truncate below
    that keeps the slot) changes none."""

    def stale_above(self, state, offset, size):
        first, within = divmod(offset, SLOT_BYTES)
        if within >= STREAM_MAX:
            first += 1
        last = (offset + size - 1) // SLOT_BYTES
        return first * CLUSTER_BYTES, (last + 1 - first) * CLUSTER_BYTES


class CompFile(LayerFile):
    """An open handle to a COMPFS file (plaintext view).

    Binds to file_COMP are handled by COMPFS itself in both cases —
    plaintext differs from the stored data, so the underlying cache can
    never be shared (paper sec. 4.2.2 last paragraph) — which is exactly
    the generic :class:`LayerFile` behaviour.
    """


class CompDirectory(LayerDirectory):
    """Directory wrapper exporting COMPFS files."""


class CompFs(TransformLayer):
    """The compression layer; see module docstring."""

    ops_class = CompOps
    cache_class = CompCache
    file_class = CompFile
    directory_class = CompDirectory
    plain_length = staticmethod(plain_length)
    stored_length = staticmethod(stored_length)

    def __init__(self, domain, coherent: bool = True) -> None:
        super().__init__(domain)
        self.coherent = coherent

    def fs_type(self) -> str:
        return "compfs"

    def space_report(self, f: CompFile) -> Dict[str, int]:
        """Plaintext bytes vs stored bytes (slot headers and streams) of
        one file."""
        under = f.state.under_file
        length = self.file_length(f.state)
        stored = 0
        for slot in range(0, stored_length(length), SLOT_BYTES):
            head = under.read(slot, _HEADER.size)
            if any(head):
                stored += _HEADER.size + _HEADER.unpack(head)[1]
        return {"plaintext_bytes": length, "stored_bytes": stored}
