"""SunOS 4.1.3 baseline (Table 3).

"Table 3 shows the cost of open, read, write, and stat operations on
SunOS 4.1.3 running on the same hardware used for the Spring
measurements": open 127 us, 4KB read 82 us, 4KB write 86 us,
fstat 28 us.

The comparator is a monolithic in-kernel UNIX file system: one trap into
the kernel, namei, a buffer/page cache, no cross-domain calls, no
stacking.  We build it on the same :class:`~repro.storage.volume.Volume`
engine as Spring's disk layer so the on-disk substrate is identical and
only the *software architecture* differs — exactly the comparison the
paper is making ("SunOS is a production system and Spring is an untuned
research prototype").

Cost calibration (microseconds, per Table 3's cached numbers):

=========  ====================================================
open       trap 25 + namei 60 + file-table state 42      = 127
4KB read   trap 25 + bookkeeping 29 + 4KB uiomove 28     =  82
4KB write  trap 25 + bookkeeping 33 + 4KB uiomove 28     =  86
fstat      trap 25 + attribute copy 3                    =  28
=========  ====================================================
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.errors import UnixError
from repro.storage.block_device import BlockDevice
from repro.storage.inode import FileType
from repro.storage.volume import Volume
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.page import PageStore

from repro.fs.attributes import FileAttributes


@dataclasses.dataclass
class SunOsCosts:
    """Calibrated per-operation CPU costs (see module docstring)."""

    trap_us: float = 25.0
    namei_us: float = 60.0
    open_state_us: float = 42.0
    read_bookkeeping_us: float = 29.0
    write_bookkeeping_us: float = 33.0
    fstat_copy_us: float = 3.0
    uiomove_per_kb_us: float = 7.0


@dataclasses.dataclass
class _Fd:
    ino: int
    position: int = 0


class SunOsFs:
    """Monolithic kernel file system with a unified buffer cache, on a
    freshly formatted ``device``."""

    def __init__(self, world, device: BlockDevice) -> None:
        self.world = world
        self.costs = SunOsCosts()
        self.volume = Volume.mkfs(device)
        self._pages: Dict[int, PageStore] = {}
        self._fds: Dict[int, _Fd] = {}
        self._next_fd = 3

    def _charge(self, us: float) -> None:
        self.world.clock.advance(us, "cpu")

    def _trap(self) -> None:
        self.world.clock.advance(self.costs.trap_us, "syscall")

    def _store(self, ino: int) -> PageStore:
        store = self._pages.get(ino)
        if store is None:
            store = PageStore()
            self._pages[ino] = store
        return store

    def _fault(self, ino: int):
        def fault(index: int, needed: AccessRights):
            data = self.volume.read_data(ino, index * PAGE_SIZE, PAGE_SIZE)
            return self._store(ino).install(index, data, needed)

        return fault

    # ---------------------------------------------------------------- syscalls
    def open(self, path: str, create: bool = False) -> int:
        self._trap()
        self._charge(self.costs.namei_us * max(1, path.strip("/").count("/") + 1))
        components = path.strip("/").split("/")
        current = self.volume.sb.root_ino
        try:
            for component in components[:-1]:
                current = self.volume.lookup(current, component)
            ino = self.volume.lookup(current, components[-1])
        except Exception:
            if not create:
                raise UnixError("ENOENT", path)
            ino = self.volume.create(current, components[-1], FileType.REGULAR).ino
        self._charge(self.costs.open_state_us)
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = _Fd(ino)
        return fd

    def _entry(self, fd: int) -> _Fd:
        try:
            return self._fds[fd]
        except KeyError:
            raise UnixError("EBADF", str(fd))

    def pread(self, fd: int, size: int, offset: int) -> bytes:
        entry = self._entry(fd)
        self._trap()
        self._charge(self.costs.read_bookkeeping_us)
        inode = self.volume.iget(entry.ino)
        if offset >= inode.size:
            return b""
        size = min(size, inode.size - offset)
        data = self._store(entry.ino).read(offset, size, self._fault(entry.ino))
        self._charge(self.costs.uiomove_per_kb_us * size / 1024)
        return data

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        entry = self._entry(fd)
        self._trap()
        self._charge(self.costs.write_bookkeeping_us)
        self._charge(self.costs.uiomove_per_kb_us * len(data) / 1024)
        self._store(entry.ino).write(offset, data, self._fault(entry.ino))
        inode = self.volume.iget(entry.ino)
        if offset + len(data) > inode.size:
            inode.size = offset + len(data)
        inode.mtime_us = inode.ctime_us = int(self.world.clock.now_us)
        self.volume.mark_dirty(entry.ino)
        return len(data)

    def write(self, fd: int, data: bytes) -> int:
        entry = self._entry(fd)
        written = self.pwrite(fd, data, entry.position)
        entry.position += written
        return written

    def fstat(self, fd: int) -> FileAttributes:
        entry = self._entry(fd)
        self._trap()
        self._charge(self.costs.fstat_copy_us)
        return FileAttributes.from_inode(self.volume.iget(entry.ino))

    def fsync(self, fd: int) -> None:
        entry = self._entry(fd)
        self._trap()
        for index, page in self._store(entry.ino).dirty_pages():
            self.volume.write_back(entry.ino, index * PAGE_SIZE, page.snapshot())
            self._store(entry.ino).set_dirty(index, False)
        self.volume.sync()

    def close(self, fd: int) -> None:
        self._entry(fd)
        self._trap()
        del self._fds[fd]

    def mkdir_p(self, path: str) -> int:
        """Test helper: create directories along ``path``."""
        current = self.volume.sb.root_ino
        for component in path.strip("/").split("/"):
            try:
                current = self.volume.lookup(current, component)
            except Exception:
                current = self.volume.create(
                    current, component, FileType.DIRECTORY
                ).ino
        return current
