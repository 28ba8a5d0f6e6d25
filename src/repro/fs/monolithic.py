"""Monolithic (non-stacked) storage file system.

Table 2's baseline column: "One that does not use stacking — this is the
case with no stacking overhead."  The disk-layer and coherency-layer
functions are fused into a single layer in a single domain: one
open-file state per open, no cross-layer calls, one cache.

Everything else about it matches the stacked SFS — same on-disk
:class:`~repro.storage.volume.Volume`, same MRSW holder table toward
upstream VMM clients, same cached/uncached switch — so the benchmark
differences isolate exactly the cost of stacking.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.errors import FsError, IsADirectoryError_
from repro.ipc.invocation import operation
from repro.naming import name as names
from repro.naming.context import NamingContext
from repro.storage.block_device import BlockDevice
from repro.storage.inode import FileType
from repro.storage.volume import Volume
from repro.types import PAGE_SIZE, AccessRights, page_range
from repro.vm.channel import BindResult
from repro.vm.memory_object import CacheManager
from repro.vm.page import CachedPage, PageStore

from repro.fs.attributes import FileAttributes
from repro.fs.base import BaseLayer, ChannelOps
from repro.fs.file import File
from repro.fs.holders import BlockHolderTable


class _MonoState:
    """Per-i-node cache state."""

    def __init__(self, ino: int) -> None:
        self.ino = ino
        self.store = PageStore()
        self.holders = BlockHolderTable()


class MonoFile(File):
    """An open handle to a monolithic-SFS file."""

    def __init__(self, fs: "MonolithicSfs", ino: int) -> None:
        super().__init__(fs.domain)
        self.fs = fs
        self.ino = ino
        self.source_key: Hashable = ("mono", fs.oid, ino)
        fs.world.charge.fs_open_state()

    @operation
    def bind(
        self,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        length: int,
    ) -> BindResult:
        return self.fs.bind_source(
            self.source_key,
            cache_manager,
            requested_access,
            offset,
            label=f"mono:ino{self.ino}",
        )

    @operation
    def get_length(self) -> int:
        return self.fs.volume.iget(self.ino).size

    @operation
    def set_length(self, length: int) -> None:
        self.fs.file_set_length(self.ino, length)

    @operation
    def read(self, offset: int, size: int) -> bytes:
        return self.fs.file_read(self.ino, offset, size)

    @operation
    def write(self, offset: int, data: bytes) -> int:
        return self.fs.file_write(self.ino, offset, data)

    @operation
    def get_attributes(self) -> FileAttributes:
        self.fs.world.charge.fs_attr_copy()
        return FileAttributes.from_inode(self.fs.volume.iget(self.ino))

    @operation
    def check_access(self, access: AccessRights) -> None:
        self.fs.world.charge.fs_access_check()
        inode = self.fs.volume.iget(self.ino)
        if inode.is_dir and access.writable:
            raise IsADirectoryError_("cannot open a directory for writing")

    @operation
    def sync(self) -> None:
        self.fs.file_sync(self.ino)


class MonoDirectory(NamingContext):
    """A directory exported by the monolithic SFS."""

    def __init__(self, fs: "MonolithicSfs", dir_ino: int) -> None:
        super().__init__(fs.domain)
        self.fs = fs
        self.dir_ino = dir_ino

    @operation
    def resolve(self, name: str) -> object:
        return self.fs._resolve_from(self.dir_ino, name)

    @operation
    def bind(self, name: str, obj: object) -> None:
        raise FsError("monolithic SFS holds files; use create_file")

    @operation
    def unbind(self, name: str) -> object:
        names.validate_component(name)
        ino = self.fs.volume.lookup(self.dir_ino, name)
        self.fs.volume.unlink(self.dir_ino, name)
        self.fs._states.pop(ino, None)
        return name

    @operation
    def rebind(self, name: str, obj: object) -> object:
        raise FsError("monolithic SFS does not support rebind")

    @operation
    def list_bindings(self):
        return [
            (entry, self.fs._make_handle(ino, charge_open=False))
            for entry, ino in sorted(self.fs.volume.readdir(self.dir_ino).items())
        ]

    @operation
    def create_file(self, name: str) -> File:
        inode = self.fs.volume.create(self.dir_ino, name, FileType.REGULAR)
        return MonoFile(self.fs, inode.ino)

    @operation
    def create_dir(self, name: str) -> "MonoDirectory":
        inode = self.fs.volume.create(self.dir_ino, name, FileType.DIRECTORY)
        return MonoDirectory(self.fs, inode.ino)

    @operation
    def rename(self, old_name: str, new_name: str) -> None:
        self.fs.volume.rename(self.dir_ino, old_name, self.dir_ino, new_name)


class MonoOps(ChannelOps):
    """Channel ops serving the VMM straight from the fused cache+volume.

    Only the four leaf transforms are written out; the ranged ops fold
    onto them via the spine's defaults, exactly as a stacked SFS's
    bottom layer would behave without clustering."""

    def state(self, source_key):
        # source_key is ("mono", oid, ino); state is created on demand so
        # a mapping faulted before any read/write still finds its cache.
        return self.layer._state(source_key[2])

    def merge_recovered(self, state, recovered: Dict[int, bytes]) -> None:
        self.layer._merge(state, recovered)

    def page_in(self, source_key, pager_object, offset, size, access) -> bytes:
        fs = self.layer
        state = self.state(source_key)
        requester = self.requester(source_key, pager_object)
        recovered = state.holders.acquire(requester, offset, size, access)
        self.merge_recovered(state, recovered)
        if fs.cache_enabled:
            return state.store.read(offset, size, fs._fault_from_disk(state.ino))
        return fs.volume.read_data(state.ino, offset, size)

    def page_out(self, source_key, pager_object, offset, size, data, retain) -> None:
        state = self.state(source_key)
        requester = self.requester(source_key, pager_object)
        self.writeback_bookkeeping(state, requester, offset, size, retain)
        pages = {
            index: data[i * PAGE_SIZE : (i + 1) * PAGE_SIZE]
            for i, index in enumerate(page_range(offset, size))
        }
        self.merge_recovered(state, pages)

    def attr_page_in(self, source_key, pager_object) -> FileAttributes:
        state = self.state(source_key)
        return FileAttributes.from_inode(self.layer.volume.iget(state.ino))

    def attr_write_out(self, source_key, pager_object, attrs) -> None:
        state = self.state(source_key)
        attrs.apply_to_inode(self.layer.volume.iget(state.ino))
        self.layer.volume.mark_dirty(state.ino)


class MonolithicSfs(BaseLayer):
    """Single-layer SFS: volume + cache + coherency fused."""

    max_under = 0
    ops_class = MonoOps

    def __init__(self, domain, device: BlockDevice, format_device: bool = False,
                 cache: bool = True) -> None:
        super().__init__(domain)
        if format_device:
            self.volume = Volume.mkfs(device)
        else:
            self.volume = Volume.mount(device)
        self.device = device
        self.cache_enabled = cache
        self._states: Dict[int, _MonoState] = {}
        self._states_by_source: Dict[Hashable, _MonoState] = {}

    def fs_type(self) -> str:
        return "mono-sfs"

    def _state(self, ino: int) -> _MonoState:
        state = self._states.get(ino)
        if state is None:
            state = _MonoState(ino)
            self._states[ino] = state
            self._states_by_source[("mono", self.oid, ino)] = state
        return state

    # ------------------------------------------------------------ naming face
    def _make_handle(self, ino: int, charge_open: bool = True) -> object:
        inode = self.volume.iget(ino)
        if inode.is_dir:
            return MonoDirectory(self, ino)
        if charge_open:
            return MonoFile(self, ino)
        handle = object.__new__(MonoFile)
        File.__init__(handle, self.domain)
        handle.fs = self
        handle.ino = ino
        handle.source_key = ("mono", self.oid, ino)
        return handle

    def _resolve_from(self, dir_ino: int, name: str) -> object:
        """The open path: lookup + access check + attribute access +
        one open state, all inside one layer."""
        components = names.split_name(name)
        current = dir_ino
        for component in components[:-1]:
            self.world.charge.fs_resolve()
            current = self.volume.lookup(current, component)
        self.world.charge.fs_resolve()
        ino = self.volume.lookup(current, components[-1])
        inode = self.volume.iget(ino)
        if inode.is_dir:
            return MonoDirectory(self, ino)
        self.world.charge.fs_access_check()
        self.world.charge.fs_attr_copy()
        return MonoFile(self, ino)

    @operation
    def resolve(self, name: str) -> object:
        return self._resolve_from(self.volume.sb.root_ino, name)

    @operation
    def bind(self, name: str, obj: object) -> None:
        raise FsError("monolithic SFS holds files; use create_file")

    @operation
    def unbind(self, name: str) -> object:
        names.validate_component(name)
        ino = self.volume.lookup(self.volume.sb.root_ino, name)
        self.volume.unlink(self.volume.sb.root_ino, name)
        self._states.pop(ino, None)
        return name

    @operation
    def rebind(self, name: str, obj: object) -> object:
        raise FsError("monolithic SFS does not support rebind")

    @operation
    def list_bindings(self):
        return sorted(self.volume.readdir(self.volume.sb.root_ino).items())

    @operation
    def create_file(self, name: str) -> File:
        inode = self.volume.create(self.volume.sb.root_ino, name, FileType.REGULAR)
        return MonoFile(self, inode.ino)

    @operation
    def create_dir(self, name: str) -> MonoDirectory:
        inode = self.volume.create(
            self.volume.sb.root_ino, name, FileType.DIRECTORY
        )
        return MonoDirectory(self, inode.ino)

    @operation
    def rename(self, old_name: str, new_name: str) -> None:
        root = self.volume.sb.root_ino
        self.volume.rename(root, old_name, root, new_name)

    # ---------------------------------------------------------------- data path
    def _fault_from_disk(self, ino: int):
        def fault(index: int, needed: AccessRights) -> CachedPage:
            data = self.volume.read_data(ino, index * PAGE_SIZE, PAGE_SIZE)
            return self._state(ino).store.install(index, data, needed)

        return fault

    def file_read(self, ino: int, offset: int, size: int) -> bytes:
        self.world.charge.fs_read_cpu()
        inode = self.volume.iget(ino)
        if offset >= inode.size:
            return b""
        size = min(size, inode.size - offset)
        state = self._state(ino)
        recovered = state.holders.collect_latest(offset, size)
        self._merge(state, recovered)
        if self.cache_enabled:
            data = state.store.read(offset, size, self._fault_from_disk(ino))
        else:
            data = self.volume.read_data(ino, offset, size)
        self.world.charge.memcpy(size)
        return data

    def file_write(self, ino: int, offset: int, data: bytes) -> int:
        self.world.charge.fs_write_cpu()
        state = self._state(ino)
        recovered = state.holders.acquire(
            None, offset, len(data), AccessRights.READ_WRITE
        )
        self._merge(state, recovered)
        self.world.charge.memcpy(len(data))
        if self.cache_enabled:
            state.store.write(offset, data, self._fault_from_disk(ino))
            inode = self.volume.iget(ino)
            if offset + len(data) > inode.size:
                inode.size = offset + len(data)
            inode.mtime_us = inode.ctime_us = int(self.world.clock.now_us)
            self.volume.mark_dirty(ino)
        else:
            self.volume.write_data(ino, offset, data)
        return len(data)

    def file_set_length(self, ino: int, length: int) -> None:
        state = self._state(ino)
        old = self.volume.iget(ino).size
        if length < old:
            if length % PAGE_SIZE:
                boundary = (length // PAGE_SIZE) * PAGE_SIZE
                recovered = state.holders.acquire(
                    None, boundary, PAGE_SIZE, AccessRights.READ_WRITE
                )
                self._merge(state, recovered)
            state.holders.invalidate(length, old - length)
            state.store.truncate_to(length)
        self.volume.truncate(ino, length)

    def file_sync(self, ino: int) -> None:
        state = self._state(ino)
        size = self.volume.iget(ino).size
        for index, page in state.store.dirty_pages():
            offset = index * PAGE_SIZE
            usable = min(PAGE_SIZE, max(0, size - offset))
            if usable:
                self.volume.write_data(ino, offset, page.snapshot()[:usable])
            page.dirty = False
        self.volume.sync()
        # fsync acknowledges: nothing may still sit in the store's buffer.
        self.volume.device.flush()

    def _merge(self, state: _MonoState, recovered: Dict[int, bytes]) -> None:
        if not recovered:
            return
        if self.cache_enabled:
            for index, data in recovered.items():
                state.store.install(index, data, AccessRights.READ_WRITE, dirty=True)
        else:
            size = self.volume.iget(state.ino).size
            for index, data in sorted(recovered.items()):
                offset = index * PAGE_SIZE
                usable = min(PAGE_SIZE, max(0, size - offset))
                if usable:
                    self.volume.write_data(state.ino, offset, data[:usable])

    def _sync_impl(self) -> None:
        for ino in list(self._states):
            if self.volume.iget(ino).allocated:
                self.file_sync(ino)

    # --- mount lifecycle --------------------------------------------------------
    def unmount(self) -> int:
        """Flush every cached page and all metadata, then mark the
        volume CLEAN.  Returns blocks written."""
        self.sync_fs()
        return self.volume.unmount()

    def remount(self) -> None:
        """Drop in-memory volume state (and the page cache — its i-node
        keys may not survive a repair) and re-mount from the device."""
        self._states.clear()
        self._states_by_source.clear()
        self.volume = Volume.mount(self.device)
