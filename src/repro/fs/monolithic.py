"""Monolithic (non-stacked) storage file system.

Table 2's baseline column: "One that does not use stacking — this is the
case with no stacking overhead."  The disk-layer and coherency-layer
functions are fused into a single layer in a single domain: one
open-file state per open, no cross-layer calls, one cache.

Everything else about it matches the stacked SFS — same on-disk
:class:`~repro.storage.volume.Volume`, same MRSW holder table toward
upstream VMM clients, same cached/uncached switch — so the benchmark
differences isolate exactly the cost of stacking.  It is built from the
same runtime pieces as the stacked layers (the state registry, the
:class:`~repro.fs.base.LayerFile` handle over ``file_*`` hooks, the
recall-then-act file protocol) and shows the volume through the disk
layer's own face (:class:`~repro.fs.disk_layer.VolumeLayer`: naming,
attribute paging, mount lifecycle) so that the two cannot drift.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import IsADirectoryError_
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.source_cache import SourceCache

from repro.fs.attributes import FileAttributes
from repro.fs.base import LayerFile, LayerFileState
from repro.fs.disk_layer import DiskDirectory, VolumeLayer, VolumeOps
from repro.fs.holders import BlockHolderTable


class _MonoCache(SourceCache):
    """The fused layer's cache of one i-node.  There is no layer below:
    the cache is its own pager and pages in straight from the volume, so
    the baseline demands its pages — one at a time, or a file
    operation's run at once — by the same engine as the stacked SFS."""

    __slots__ = ("ino",)

    def __init__(self, layer: "MonolithicSfs", ino: int) -> None:
        super().__init__(layer, "mono")
        self.ino = ino

    def pager(self) -> "_MonoCache":
        return self

    def page_in(self, offset: int, size: int, access: AccessRights) -> bytes:
        return self.manager.volume.read_data(self.ino, offset, size)


class _MonoState(LayerFileState):
    """Per-i-node cache state.  The fused layer has no file below it:
    what the registry keys a state by is the i-node number."""

    def __init__(self, layer: "MonolithicSfs", ino: int) -> None:
        self.layer = layer
        self.ino = self.under_key = ino
        self.source_key = ("mono", layer.oid, ino)
        self.cache = _MonoCache(layer, ino)
        self.store = self.cache.store
        self.holders = BlockHolderTable()
        self.down_channel = self.down_pager = None

    def purge(self) -> None:
        super().purge()
        self.store.clear()


class MonoFile(LayerFile):
    """An open handle to a monolithic-SFS file; every operation is one
    of the layer's ``file_*`` hooks."""


class MonoOps(VolumeOps):
    """Channel ops serving the VMM straight from the fused cache+volume.

    Only the page-in is written out — a page-out is the spine's default,
    bookkeeping then :meth:`MonolithicSfs.merge_recovered` — and a
    ranged page-in serves its minimum: the baseline does not cluster,
    exactly as a stacked SFS's bottom layer would behave without it."""

    def state(self, source_key):
        # source_key is ("mono", oid, ino); state is created on demand so
        # a mapping that outlives a remount still finds its cache.
        return self.layer._state(source_key[2])

    def page_in(self, source_key, pager_object, offset, size, access) -> bytes:
        fs = self.layer
        state = self.state(source_key)
        self.admit(state, pager_object, offset, size, access)
        if fs.cache_enabled:
            state.cache.prefetch(offset, size, AccessRights.READ_ONLY)
            return state.store.read(offset, size, state.cache.fault)
        return fs.volume.read_data(state.ino, offset, size)

    def page_in_range(
        self, source_key, pager_object, offset, min_size, max_size, access
    ) -> bytes:
        return self.page_in(source_key, pager_object, offset, min_size, access)


class MonolithicSfs(VolumeLayer):
    """Single-layer SFS: volume + cache + coherency fused."""

    ops_class = MonoOps

    def __init__(self, domain, device: BlockDevice, format_device: bool = False,
                 cache: bool = True) -> None:
        super().__init__(domain, device, format_device)
        self.cache_enabled = cache

    def fs_type(self) -> str:
        return "mono-sfs"

    def source_tag(self) -> str:
        return "mono"

    def _state(self, ino: int) -> _MonoState:
        state = self._states.get(ino)
        if state is None:
            state = self._adopt_state(_MonoState(self, ino))
        return state

    def make_object(self, ino: int, charge_open: bool = True) -> object:
        """Materialize a handle for an i-node.  An open of a file pays
        its access check and attribute access here, inside the one
        layer."""
        if self.volume.iget(ino).is_dir:
            return DiskDirectory(self, ino)
        if charge_open:
            self.world.charge.fs_access_check()
            self.world.charge.fs_attr_copy()
        return MonoFile(self, self._state(ino), charge_open)

    def created_file(self, ino: int) -> MonoFile:
        # A create is not an open: no access check, no attribute access
        # (Table 2 counts the difference).
        return MonoFile(self, self._state(ino))

    def unlinked(self, ino: int) -> None:
        self._purge_state(ino)

    # ---------------------------------------------------------------- data path
    def merge_recovered(self, state: _MonoState, recovered: Dict[int, bytes]) -> None:
        if self.cache_enabled:
            state.store.install_modified(recovered)
        else:
            for index, data in sorted(recovered.items()):
                self.volume.write_back(state.ino, index * PAGE_SIZE, data)

    def file_length(self, state: _MonoState) -> int:
        return self.volume.iget(state.ino).size

    def file_get_attributes(self, state: _MonoState) -> FileAttributes:
        self.world.charge.fs_attr_copy()
        return FileAttributes.from_inode(self.volume.iget(state.ino))

    def file_check_access(self, state: _MonoState, access: AccessRights) -> None:
        self.world.charge.fs_access_check()
        if self.volume.iget(state.ino).is_dir and access.writable:
            raise IsADirectoryError_("cannot open a directory for writing")

    def file_read(self, state: _MonoState, offset: int, size: int) -> bytes:
        self.world.charge.fs_read_cpu()
        inode = self.volume.iget(state.ino)
        if offset >= inode.size:
            return b""
        size = min(size, inode.size - offset)
        self.recall(state, offset, size)
        if self.cache_enabled:
            state.cache.prefetch(offset, size, AccessRights.READ_ONLY)
            data = state.store.read(offset, size, state.cache.fault)
        else:
            data = self.volume.read_data(state.ino, offset, size)
        self.world.charge.memcpy(size)
        return data

    def file_write(self, state: _MonoState, offset: int, data: bytes) -> int:
        self.world.charge.fs_write_cpu()
        self.recall(state, offset, len(data), AccessRights.READ_WRITE)
        self.world.charge.memcpy(len(data))
        if self.cache_enabled:
            state.cache.prefetch(
                offset, len(data), AccessRights.READ_WRITE, upgrade=True
            )
            state.store.write(offset, data, state.cache.fault)
            inode = self.volume.iget(state.ino)
            if offset + len(data) > inode.size:
                inode.size = offset + len(data)
            inode.mtime_us = inode.ctime_us = int(self.world.clock.now_us)
            self.volume.mark_dirty(state.ino)
        else:
            self.volume.write_data(state.ino, offset, data)
        return len(data)

    def file_set_length(self, state: _MonoState, length: int) -> None:
        old = self.volume.iget(state.ino).size
        if length < old:
            self.recall_for_shrink(state, length, old)
            state.store.truncate_to(length)
        self.volume.truncate(state.ino, length)

    def file_sync(self, state: _MonoState) -> None:
        for index, page in state.store.dirty_pages():
            self.volume.write_back(state.ino, index * PAGE_SIZE, page.snapshot())
            state.store.set_dirty(index, False)
        self.volume.commit()

    def _sync_impl(self) -> None:
        for state in list(self._states.values()):
            if self.volume.iget(state.ino).allocated:
                self.file_sync(state)

    # --- mount lifecycle --------------------------------------------------------
    def unmount(self) -> int:
        """Flush every cached page and all metadata, then mark the
        volume CLEAN.  Returns blocks written."""
        self.sync_fs()
        return super().unmount()

    def remount(self) -> None:
        """Drop in-memory volume state (and the page cache — its i-node
        keys may not survive a repair) and re-mount from the device."""
        for state in self._states.values():
            state.store.clear()  # a handle from before must not serve it
        self._states.clear()
        self._states_by_source.clear()
        super().remount()
