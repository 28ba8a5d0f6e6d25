"""COMPFS — the compression file system layer (paper sec. 4.2.1).

"Suppose we would like to implement a compression file system (COMPFS).
We can use COMPFS to save disk space by compressing all data before
writing it out and by uncompressing all data read from the disk.  Since
we are not interested in rewriting an on-disk file system, we can
implement COMPFS as a layer on top of a base file system (SFS)."

The two design points the paper walks through are both implemented and
selected per instance:

* ``coherent=False`` — **case 1 (Figure 5)**: COMPFS accesses the
  underlying file through the plain file interface and caches plaintext.
  Mappings/reads of file_COMP and direct access to file_SFS are *not*
  coherent: a direct write to the underlying file leaves COMPFS's
  plaintext cache stale (the staleness window Figure 5 warns about, and
  which ``benchmarks/bench_fig05_compfs_case1.py`` demonstrates).
* ``coherent=True`` — **case 2 (Figure 6)**: COMPFS additionally acts
  as a cache manager for the underlying file by binding to it (the
  C3-P3 connection).  Direct writes to file_SFS now flush COMPFS's
  plaintext cache, and COMPFS writes through immediately, so all views
  stay coherent.

On-disk format of the underlying file: ``b"CZ01" + u64 plaintext size +
zlib stream``.  Compression is real (zlib), so the space savings COMPFS
exists for are measurable.

COMPFS is the paper's canonical *transform* layer: in spine terms its
override points are the decode on page-in and the encode on write-back
(:class:`CompOps`), plus the plaintext view of lengths and attributes.
Everything else — naming, binding, holder fan-out — is the generic
runtime.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, Optional

from repro.errors import FsError
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.page import PageStore

from repro.fs.attributes import FileAttributes
from repro.fs.base import (
    WHOLE_FILE,
    BaseLayer,
    ChannelOps,
    LayerDirectory,
    LayerFile,
    LayerFileState,
    split_pages,
)
from repro.fs.file import File

MAGIC = b"CZ01"
_PAYLOAD_HEAD = struct.Struct("<4sQ")


def pack_compressed(plaintext: bytes) -> bytes:
    return _PAYLOAD_HEAD.pack(MAGIC, len(plaintext)) + zlib.compress(plaintext, 6)


def unpack_compressed(payload: bytes) -> bytes:
    if len(payload) == 0:
        return b""
    if len(payload) < _PAYLOAD_HEAD.size:
        raise FsError("underlying file too short to be a COMPFS file")
    magic, plain_size = _PAYLOAD_HEAD.unpack_from(payload)
    if magic != MAGIC:
        raise FsError("underlying file is not in COMPFS format")
    plaintext = zlib.decompress(payload[_PAYLOAD_HEAD.size :])
    if len(plaintext) != plain_size:
        raise FsError(
            f"COMPFS header claims {plain_size} bytes, got {len(plaintext)}"
        )
    return plaintext


class CompFileState(LayerFileState):
    """Per-file state: plaintext cache + upstream holders + downstream
    channel (case 2 only)."""

    def __init__(self, layer: "CompFs", under_file: File) -> None:
        super().__init__(layer, under_file)
        self.store = self.plain = PageStore()
        self.plain_size: Optional[int] = None  # None = not loaded
        self.dirty = False

    def purge(self) -> None:
        super().purge()
        self.plain.clear()
        self.plain_size = None
        self.dirty = False


class CompFile(LayerFile):
    """An open handle to a COMPFS file (plaintext view).

    Binds to file_COMP are handled by COMPFS itself in both cases —
    plaintext differs from the stored data, so the underlying cache can
    never be shared (paper sec. 4.2.2 last paragraph) — which is exactly
    the generic :class:`LayerFile` behaviour.
    """


class CompDirectory(LayerDirectory):
    """Directory wrapper exporting COMPFS files."""


class CompOps(ChannelOps):
    """COMPFS's transform points: pages are served from / merged into the
    whole-file plaintext cache, and every modification is re-encoded and
    written through (case 2).  From below it overrides the cache side's
    three hooks and nothing else."""

    def data_length(self, state) -> int:
        self.layer._ensure_loaded(state)
        return state.plain_size

    def page_in(self, source_key, pager_object, offset, size, access) -> bytes:
        state = self.state(source_key)
        plain_size = self.data_length(state)
        self.admit(state, pager_object, offset, size, access)
        if offset >= plain_size:
            return b""
        size = min(size, plain_size - offset)
        return state.plain.read(offset, size, self.layer._zero_fault(state))

    def page_out(self, source_key, pager_object, offset, size, data, retain) -> None:
        layer = self.layer
        state = self.state(source_key)
        layer._ensure_loaded(state)
        self.writeback_bookkeeping(
            state, self.requester(source_key, pager_object), offset, size, retain
        )
        usable = min(size, max(0, state.plain_size - offset))
        self.merge_recovered(state, split_pages(offset, usable, data))
        if layer.coherent:
            layer._write_through(state)

    def attr_page_in(self, source_key, pager_object) -> FileAttributes:
        state = self.state(source_key)
        return self.layer.file_get_attributes(state)

    def attr_write_out(self, source_key, pager_object, attrs) -> None:
        layer = self.layer
        state = self.state(source_key)
        layer._ensure_loaded(state)
        if attrs.size != state.plain_size:
            layer.file_set_length(state, attrs.size)

    # -------------------------------------------------- cache side (case 2)
    # The lower layer acts on our cache of the *compressed* bytes, which
    # we hold read-only and write through: a recall finds nothing of ours
    # to give back, and a change to any range of them is a change to the
    # whole plaintext above.  What the holders above gave it folds into the
    # plaintext as dirty, written through on the next sync.  A flush that
    # recalled nothing, or a change to the image, drops the plaintext
    # derived from it (conservative, always correct for a whole-file
    # compressor); a populate pushes the image as it is.
    def stale_above(self, state, offset, size):
        # Every plaintext page is derived from the whole image.
        return 0, WHOLE_FILE

    def give_back(self, state, offset, size, recovered, keep) -> Dict[int, bytes]:
        if recovered:
            self.merge_recovered(state, recovered)
        elif keep is None:
            self.layer._drop_plaintext(state)
        return {}

    def forget(self, state, offset, size, data=None, access=None) -> None:
        if access is None:
            self.layer._drop_plaintext(state)

    def invalidate_attributes(self, state) -> None:
        # Length lives in the compressed header; reload lazily.
        self.layer._drop_plaintext(state)


class CompFs(BaseLayer):
    """The compression layer; see module docstring."""

    max_under = 1
    ops_class = CompOps
    state_class = CompFileState
    file_class = CompFile
    directory_class = CompDirectory
    down_access = AccessRights.READ_ONLY

    def __init__(self, domain, coherent: bool = True) -> None:
        super().__init__(domain)
        self.coherent = coherent

    def fs_type(self) -> str:
        return "compfs"

    # -------------------------------------------------------------- load/store
    def ensure_down(self, state: CompFileState) -> bool:
        """Case 2: establish the C3-P3 connection so direct access to the
        underlying file triggers coherency actions against us.  Case 1
        declines — COMPFS stays invisible to the lower layer."""
        if not self.coherent:
            return False
        return super().ensure_down(state)

    def _ensure_loaded(self, state: CompFileState) -> None:
        if state.plain_size is not None:
            return
        self.ensure_down(state)
        compressed_size = state.under_file.get_length()
        if self.coherent and compressed_size > 0:
            # Read through the channel so we are registered as a holder —
            # one ranged page-in for the whole compressed payload, so the
            # layers below can cluster instead of seeing a per-page loop.
            payload = bytes(
                state.down_channel.pager_object.page_in_range(
                    0, compressed_size, compressed_size, AccessRights.READ_ONLY
                )[:compressed_size]
            )
        else:
            payload = state.under_file.read(0, compressed_size)
        plaintext = unpack_compressed(payload)
        self.world.charge.decompress(len(payload))
        pages = (len(plaintext) + PAGE_SIZE - 1) // PAGE_SIZE
        state.plain.install_run(0, pages, plaintext, AccessRights.READ_WRITE)
        state.plain_size = len(plaintext)
        state.dirty = False

    def _plaintext(self, state: CompFileState) -> bytes:
        assert state.plain_size is not None
        return state.plain.read(0, state.plain_size, self._zero_fault(state))

    @staticmethod
    def _zero_fault(state: CompFileState):
        def fault(index: int, needed: AccessRights):
            return state.plain.install(index, b"", needed)

        return fault

    def _write_through(self, state: CompFileState) -> None:
        """Compress the plaintext and rewrite the underlying file."""
        plaintext = self._plaintext(state)
        self.world.charge.compress(len(plaintext))
        payload = pack_compressed(plaintext)
        # The underlying set_length + write go through the file
        # interface; in case 2 the lower layer's coherency protocol will
        # flush/invalidate our C3 cache as part of this.  Those actions
        # are echoes of this very write: writing_through keeps them off
        # our holders above and off the (still current) plaintext.
        state.writing_through = True
        try:
            state.under_file.set_length(len(payload))
            state.under_file.write(0, payload)
        finally:
            state.writing_through = False
        state.dirty = False

    def _drop_plaintext(self, state: CompFileState) -> None:
        if state.writing_through:
            return  # echo of our own write; the plaintext is current
        state.plain.clear()
        state.plain_size = None
        state.dirty = False
        # Our clients' caches are now potentially stale too.
        if state.holders.any_holder():
            state.holders.invalidate(0, WHOLE_FILE)

    def merge_recovered(
        self, state: CompFileState, recovered: Dict[int, bytes]
    ) -> None:
        for index, data in recovered.items():
            state.plain.install(index, data, AccessRights.READ_WRITE, dirty=True)
            state.dirty = True

    # ------------------------------------------------------------------ file ops
    def file_read(self, state: CompFileState, offset: int, size: int) -> bytes:
        self.world.charge.fs_read_cpu()
        self._ensure_loaded(state)
        self.recall(state, offset, size)
        if offset >= state.plain_size:
            return b""
        size = min(size, state.plain_size - offset)
        data = state.plain.read(offset, size, self._zero_fault(state))
        self.world.charge.memcpy(size)
        return data

    def file_write(self, state: CompFileState, offset: int, data: bytes) -> int:
        self.world.charge.fs_write_cpu()
        self._ensure_loaded(state)
        self.recall(state, offset, len(data), AccessRights.READ_WRITE)
        state.plain.write(offset, data, self._zero_fault(state))
        state.plain_size = max(state.plain_size, offset + len(data))
        state.dirty = True
        self.world.charge.memcpy(len(data))
        if self.coherent:
            self._write_through(state)
        return len(data)

    def file_length(self, state: CompFileState) -> int:
        self._ensure_loaded(state)
        return state.plain_size

    def file_set_length(self, state: CompFileState, length: int) -> None:
        self._ensure_loaded(state)
        if length < state.plain_size:
            self.recall_for_shrink(state, length, state.plain_size)
            state.plain.truncate_to(length)
        state.plain_size = length
        state.dirty = True
        if self.coherent:
            self._write_through(state)

    def file_get_attributes(self, state: CompFileState) -> FileAttributes:
        self.world.charge.fs_attr_copy()
        self._ensure_loaded(state)
        attrs = state.under_file.get_attributes()
        attrs.size = state.plain_size  # plaintext view
        return attrs

    def file_sync(self, state: CompFileState) -> None:
        if state.plain_size is not None and state.dirty:
            self._write_through(state)
        state.under_file.sync()

    def _sync_impl(self) -> None:
        for state in self._states.values():
            if state.plain_size is not None and state.dirty:
                self._write_through(state)

    # --------------------------------------------------------------- statistics
    def space_report(self, f: CompFile) -> Dict[str, int]:
        """Plaintext vs stored (compressed) sizes for one file."""
        state = f.state
        self._ensure_loaded(state)
        return {
            "plaintext_bytes": state.plain_size,
            "stored_bytes": state.under_file.get_length(),
        }
