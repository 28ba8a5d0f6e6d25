"""The coherency layer.

"The Spring distributed file system is implemented as a coherency layer.
The coherency layer implements a per-block multiple-readers/single-writer
coherency protocol.  Among other things, the implementation keeps track
of the state of each file block (read-only vs. read-write) and of each
cache object that holds the block at any point in time. ... The
coherency layer also caches file attributes using the operations
provided by the fs_cache and fs_pager interfaces." (paper sec. 6.2)

The layer plays both roles of Figure 4 simultaneously:

* **pager** to its clients (VMMs mapping files, or further layers
  stacked above): serves page_in/page_out on its files and triggers
  coherency actions against the other holders before granting access;
* **cache manager** to the layer below: binds to underlying files,
  exchanging fs_cache/fs_pager objects, caches their blocks and
  attributes, and responds to the lower pager's coherency actions —
  recursively recalling data from its own upstream holders first.

Stacking an instance of this layer over any non-coherent layer yields a
coherent stack (sec. 6.3); Spring SFS is exactly coherency-over-disk
(Figure 10).  Construct with ``cache=False`` to disable data+attribute
caching — the "Cached by Coherency Layer? No" rows of Table 2.

In spine terms (:mod:`repro.fs.base`): this layer IS the recall policy,
so :class:`CoherencyOps` overrides nearly the whole dispatch table —
what it inherits from the runtime is the state registry, the naming
face, the bind plumbing, and the fan-out helpers.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import FsError, StaleFileError
from repro.ipc.narrow import narrow
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.cache_object import FsCache
from repro.vm.channel import Channel
from repro.vm.page import index_runs

from repro.fs.attributes import CachedAttributes, FileAttributes
from repro.fs.base import (
    BaseLayer,
    ChannelOps,
    LayerCache,
    LayerDirectory,
    LayerFile,
    LayerFileState,
    split_pages,
)
from repro.fs.file import File


class CoherentFileState(LayerFileState):
    """Per-file state the coherency layer maintains (one per underlying
    file, shared by every open handle and every upstream channel)."""

    def __init__(self, layer: "CoherencyLayer", under_file: File) -> None:
        super().__init__(layer, under_file)
        #: The layer's cache of the file below: faults, read-ahead,
        #: prefetch and write-back all go through it.
        self.cache = LayerCache(layer, self)
        self.store = self.cache.store
        self.streams = self.cache.streams
        self.attrs: Optional[CachedAttributes] = None
        self.destroyed = False

    def purge(self) -> None:
        super().purge()
        self.store.clear()
        self.attrs = None
        self.destroyed = True


class CoherentFile(LayerFile):
    """An open handle to a file exported by the coherency layer."""


class CoherentDirectory(LayerDirectory):
    """Wraps an underlying directory context, exporting coherent files."""


class CoherencyOps(ChannelOps):
    """The coherency layer's dispatch table: every op first recalls the
    affected blocks from the *other* upstream holders (MRSW), then
    serves from / installs into the layer's page cache."""

    def requester(self, source_key, pager_object) -> Channel:
        """Unlike the pass-through, a request from a pager object with no
        live channel is a protocol violation here — the holder table
        would silently miscount."""
        channel = super().requester(source_key, pager_object)
        if channel is None:
            raise FsError("pager object does not belong to a live channel")
        return channel

    # ----------------------------------------------------------- pager side
    def data_length(self, state) -> int:
        if self.layer.cache_enabled:
            return self.layer.file_length(state)
        return state.under_file.get_length()

    def page_in(self, source_key, pager_object, offset, size, access) -> bytes:
        layer = self.layer
        state = self.state(source_key)
        recovered = self.admit(state, pager_object, offset, size, access)
        if layer.cache_enabled:
            # What the requester asked for and is missing here comes from
            # below run by run: a window an upstream reader explicitly
            # asked for is demanded data, not speculation — no knob
            # gates it — so a read-ahead hint issued above a stacked
            # layer survives to the disk layer's clustering.
            if offset % PAGE_SIZE + size > PAGE_SIZE:
                state.cache.prefetch(offset, size, access)
            # Zero-copy serve: the requester installs (copies) the page
            # into its own cache immediately, so handing out a view of
            # ours is safe — see DESIGN.md section 7.
            return state.store.read_bytes(offset, size, state.cache.fault, access)
        return layer._read_through(state, offset, size, recovered)

    def attr_page_in(self, source_key, pager_object) -> FileAttributes:
        return self.layer._current_attrs(self.state(source_key)).copy()

    def attr_write_out(self, source_key, pager_object, attrs) -> None:
        layer = self.layer
        state = self.state(source_key)
        if layer.cache_enabled:
            state.attrs = CachedAttributes(attrs.copy(), dirty=True)
            requester = self.requester(source_key, pager_object)
            layer.invalidate_upstream_attrs(state, exclude=requester)
        else:
            layer.ensure_down(state)
            if state.down_pager is not None:
                state.down_pager.attr_write_out(attrs)

    # ----------------------------------------------------------- cache side
    # The lower pager acts on our cache of ITS file; we must first recall
    # the affected blocks from our own upstream holders (recursive
    # coherency, the P3-C3 arrow of Figure 6 composed with P1-C1) — that
    # half is the spine's default, the fan-out to the holders above —
    # and then act on our own store.
    def flush_back(self, state, offset, size) -> Dict[int, bytes]:
        state.store.install_modified(super().flush_back(state, offset, size))
        modified = state.store.collect_modified(offset, size)
        state.store.drop_range(offset, size)
        return modified

    def deny_writes(self, state, offset, size) -> Dict[int, bytes]:
        state.store.install_modified(super().deny_writes(state, offset, size))
        modified = state.store.collect_modified(offset, size)
        state.store.downgrade_range(offset, size)
        state.store.clean_range(offset, size)
        return modified

    def write_back(self, state, offset, size) -> Dict[int, bytes]:
        state.store.install_modified(super().write_back(state, offset, size))
        modified = state.store.collect_modified(offset, size)
        state.store.clean_range(offset, size)
        return modified

    def delete_range(self, state, offset, size) -> None:
        super().delete_range(state, offset, size)
        state.store.drop_range(offset, size)

    def zero_fill(self, state, offset, size) -> None:
        super().zero_fill(state, offset, size)
        state.store.zero_range(offset, size)

    def populate(self, state, offset, size, access, data) -> None:
        for index, chunk in split_pages(offset, size, data).items():
            state.store.install(index, chunk, access)

    def destroy_cache(self, state) -> None:
        state.store.clear()
        state.attrs = None
        state.destroyed = True

    def invalidate_attributes(self, state) -> None:
        state.attrs = None
        self.layer.invalidate_upstream_attrs(state)

    def write_back_attributes(self, state) -> Optional[FileAttributes]:
        if state.attrs is not None and state.attrs.dirty:
            # The pager below now owns the latest attributes; our copy is
            # clean (mirrors write_back's dirty-clearing for data).
            state.attrs.dirty = False
            return state.attrs.attrs.copy()
        return None


class CoherencyLayer(BaseLayer):
    """See module docstring."""

    max_under = 1
    ops_class = CoherencyOps
    state_class = CoherentFileState
    file_class = CoherentFile
    directory_class = CoherentDirectory

    def __init__(
        self, domain, cache: bool = True, protocol: str = "per_block"
    ) -> None:
        super().__init__(domain)
        self.cache_enabled = cache
        #: Coherency policy: "per_block" (the paper's production choice)
        #: or "whole_file" (coarse single-owner) — the protocol is not
        #: dictated by the architecture (sec. 3.3.3).
        self.protocol = protocol

    def fs_type(self) -> str:
        return "coherency"

    def source_tag(self) -> str:
        return "coh"

    def _on_open(
        self, state: CoherentFileState, attrs: Optional[FileAttributes]
    ) -> None:
        # Seed the attribute cache from the open-time fetch.
        if self.cache_enabled and state.attrs is None and attrs is not None:
            state.attrs = CachedAttributes(attrs.copy())

    # ------------------------------------------------------ downstream access
    def merge_recovered(
        self, state: CoherentFileState, recovered: Dict[int, bytes]
    ) -> None:
        """Fold data recalled from upstream holders into our cache as
        dirty (it is newer than the lower layer's copy), or push it
        straight down, run by run, when we are not caching."""
        if not recovered:
            return
        if self.cache_enabled:
            state.store.install_modified(recovered)
        else:
            self.push_recovered(state, recovered)

    # ------------------------------------------------------------- attributes
    def _collect_latest_attrs(self, state: CoherentFileState) -> None:
        """Attribute analogue of write_back: pull dirty attributes from
        upstream file-system caches (narrowable to fs_cache) so this
        layer's view is current.  VMM channels are plain cache managers
        and are skipped — so this costs nothing in a plain SFS."""
        with self.fanout_region():
            for channel in self.channels.channels_for(state.source_key):
                fs_cache = narrow(channel.cache_object, FsCache)
                if fs_cache is None:
                    continue
                fetched = fs_cache.write_back_attributes()
                if fetched is not None:
                    if self.cache_enabled:
                        state.attrs = CachedAttributes(fetched, dirty=True)
                    else:
                        self.ensure_down(state)
                        if state.down_pager is not None:
                            state.down_pager.attr_write_out(fetched)

    def _current_attrs(self, state: CoherentFileState) -> FileAttributes:
        self._collect_latest_attrs(state)
        if self.cache_enabled:
            if state.attrs is None:
                self.ensure_down(state)
                if state.down_pager is not None:
                    fetched = state.down_pager.attr_page_in()
                else:
                    fetched = state.under_file.get_attributes()
                state.attrs = CachedAttributes(fetched)
            return state.attrs.attrs
        return state.under_file.get_attributes()

    def _now(self) -> int:
        return int(self.world.clock.now_us)

    # --------------------------------------------------------------- file ops
    def file_read(self, state: CoherentFileState, offset: int, size: int) -> bytes:
        self.world.charge.fs_read_cpu()
        attrs = self._current_attrs(state)
        if offset >= attrs.size:
            return b""
        size = min(size, attrs.size - offset)
        recovered = self.recall(state, offset, size)
        if self.cache_enabled:
            # The file operation knows its range: more than one page is
            # demanded by the run, not by the page.
            if offset % PAGE_SIZE + size > PAGE_SIZE:
                state.cache.prefetch(offset, size, AccessRights.READ_ONLY)
            data = state.store.read(offset, size, state.cache.fault)
            state.attrs.touch_atime(self._now())
        else:
            data = self._read_through(state, offset, size, recovered)
        self.world.charge.memcpy(size)
        return data

    def _read_through(
        self,
        state: CoherentFileState,
        offset: int,
        size: int,
        recovered: Dict[int, bytes],
    ) -> bytes:
        """An uncached read: the pages of the range are paged in from
        below, one call per contiguous run, into a zeroed buffer (pagers
        return short data at EOF).  What was just recalled is newer than
        what is below: those pages are not fetched but overlaid."""
        self.ensure_down(state)
        pager = state.down_channel.pager_object
        first, skip = divmod(offset, PAGE_SIZE)
        count = (skip + size - 1) // PAGE_SIZE + 1
        runs = [(first, count)]  # nothing recalled, the usual case: one run
        if recovered:
            runs = index_runs(
                [i for i in range(first, first + count) if i not in recovered]
            )
        out = bytearray(count * PAGE_SIZE)
        for run, pages in runs:
            data = pager.page_in(
                run * PAGE_SIZE, pages * PAGE_SIZE, AccessRights.READ_ONLY
            )
            at = (run - first) * PAGE_SIZE
            out[at : at + len(data)] = data
        for index, data in recovered.items():
            if first <= index < first + count:
                at = (index - first) * PAGE_SIZE
                out[at : at + len(data)] = data
        return bytes(memoryview(out)[skip : skip + size])

    def file_write(self, state: CoherentFileState, offset: int, data: bytes) -> int:
        size = len(data)
        self.world.charge.fs_write_cpu()
        self.recall(state, offset, size, AccessRights.READ_WRITE)
        self.world.charge.memcpy(size)
        if self.cache_enabled:
            if offset % PAGE_SIZE + size > PAGE_SIZE:
                state.cache.prefetch(
                    offset, size, AccessRights.READ_WRITE, upgrade=True
                )
            state.store.write(offset, data, state.cache.fault)
            self._current_attrs(state)  # ensure attrs are cached
            state.attrs.grow(offset + size)
            state.attrs.touch_mtime(self._now())
            self.invalidate_upstream_attrs(state)
        else:
            state.under_file.write(offset, data)
        return size

    def file_get_attributes(self, state: CoherentFileState) -> FileAttributes:
        self.world.charge.fs_attr_copy()
        return self._current_attrs(state).copy()

    def file_length(self, state: CoherentFileState) -> int:
        return self._current_attrs(state).size

    def file_check_access(
        self, state: CoherentFileState, access: AccessRights
    ) -> None:
        self.world.charge.fs_access_check()
        if state.destroyed:
            raise StaleFileError("file state destroyed under open handle")

    def file_set_length(self, state: CoherentFileState, length: int) -> None:
        old = self._current_attrs(state).size
        if length < old:
            self.recall_for_shrink(state, length, old)
            state.store.truncate_to(length)
        if self.cache_enabled:
            state.attrs.set_size(length)
            state.attrs.touch_mtime(self._now())
            self.invalidate_upstream_attrs(state)
        state.under_file.set_length(length)

    def file_sync(self, state: CoherentFileState) -> None:
        """Push dirty attributes (first — the length clamps page-outs)
        and dirty blocks to the lower layer.

        Write-back order is deterministic: dirty pages ascend by index,
        each contiguous run one sync.  Uncached there is nothing of ours
        to push: the file below syncs itself."""
        if not self.cache_enabled:
            state.under_file.sync()
            return
        self.ensure_down(state)
        if state.attrs is not None and state.attrs.dirty:
            if state.down_pager is not None:
                state.down_pager.attr_write_out(state.attrs.attrs.copy())
            state.attrs.dirty = False
        state.cache.write_back(state.store.dirty_indices(), "sync")

    def _sync_impl(self) -> None:
        for state in self._states.values():
            if not state.destroyed:
                self.file_sync(state)
