"""POSIX-style facade over a Spring file system stack.

Spring runs UNIX binaries through an emulation layer (paper sec. 3.1,
citing [11]); this module is the equivalent surface for examples,
benchmarks, and tests: ``open/read/write/lseek/close/stat`` over any
naming context that exports files — which, by the stacking architecture,
means over *any* stack.

All calls execute on behalf of the facade's client domain, so the
benchmarks' invocation accounting is identical whether a workload uses
the facade or raw objects — and no Spring error leaves it: where a call
enters the client domain (:meth:`Posix._client`) is where an error the
stack raised becomes the ``UnixError`` that :data:`ERRNO` names.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

from repro import errors
from repro.errors import UnixError
from repro.ipc import invocation
from repro.ipc.domain import Domain
from repro.ipc.narrow import narrow
from repro.naming.context import NamingContext
from repro.types import AccessRights

from repro.fs.attributes import FileAttributes
from repro.fs.file import File

# Open flags (values mirror the classic octal constants).
O_RDONLY = 0o0
O_WRONLY = 0o1
O_RDWR = 0o2
O_CREAT = 0o100
O_TRUNC = 0o1000
O_APPEND = 0o2000

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2

#: The errno of each Spring error a path, a write or an offset can meet,
#: whichever layer of whichever stack raised it: a naming error and its
#: file system twin are one errno.  Looked up along the error's MRO.
ERRNO = {
    errors.NameNotFoundError: "ENOENT", errors.FileNotFoundError_: "ENOENT",
    errors.NotAContextError: "ENOTDIR", errors.NotADirectoryError_: "ENOTDIR",
    errors.NameAlreadyBoundError: "EEXIST", errors.FileExistsError_: "EEXIST",
    errors.InvalidNameError: "EINVAL", errors.OutOfRangeError: "EINVAL",
    errors.IsADirectoryError_: "EISDIR",
    errors.DirectoryNotEmptyError: "ENOTEMPTY",
    errors.NoSpaceError: "ENOSPC",
    errors.ReadOnlyError: "EROFS",
}


@dataclasses.dataclass
class OpenFile:
    file: File
    flags: int
    position: int = 0

    @property
    def readable(self) -> bool:
        return (self.flags & 0o3) in (O_RDONLY, O_RDWR)

    @property
    def writable(self) -> bool:
        return (self.flags & 0o3) in (O_WRONLY, O_RDWR)


class _ClientCall:
    """Run the enclosed call on behalf of the client domain (what
    ``Domain.activate`` does); a Spring error it raises leaves as the
    ``UnixError`` of :data:`ERRNO`.  A plain context manager: this is
    entered once per POSIX call, and holds no state of its own between
    entry and exit, so one instance may be entered again and again."""

    __slots__ = ("domain", "path")

    def __init__(self, domain: Domain, path: str) -> None:
        self.domain = domain
        self.path = path

    def __enter__(self) -> None:
        invocation.push_domain(self.domain)

    def __exit__(self, exc_type, exc, traceback) -> None:
        invocation.pop_domain()
        if isinstance(exc, errors.SpringError):
            for cls in exc_type.__mro__:
                if cls in ERRNO:
                    raise UnixError(ERRNO[cls], self.path or str(exc)) from exc


class Posix:
    """One process's UNIX-like view of a file system tree."""

    def __init__(self, root: NamingContext, domain: Domain) -> None:
        self.root = root
        self.domain = domain
        self._fds: Dict[int, OpenFile] = {}
        self._next_fd = 3  # leave 0-2 for the traditional trio
        #: The path-less syscalls' call, built once: they name no path.
        self._call = _ClientCall(domain, "")

    def _client(self, path: str) -> _ClientCall:
        return _ClientCall(self.domain, path)

    # ------------------------------------------------------------ resolution
    def _context(self, path: str) -> NamingContext:
        """The directory at ``path`` (the root when empty)."""
        path = path.strip("/")
        context = narrow(self.root.resolve(path) if path else self.root, NamingContext)
        if context is None:
            raise UnixError("ENOTDIR", path)
        return context

    def _split_parent(self, path: str):
        parent, _, leaf = path.strip("/").rpartition("/")
        return self._context(parent), leaf

    def _resolve_file(self, path: str) -> File:
        f = narrow(self.root.resolve(path.strip("/")), File)
        if f is None:
            raise UnixError("EISDIR", path)
        return f

    # ------------------------------------------------------------- syscalls
    def open(self, path: str, flags: int = O_RDONLY) -> int:
        with self._client(path):
            try:
                f = self._resolve_file(path)
            except (errors.NameNotFoundError, errors.FileNotFoundError_):
                if not flags & O_CREAT:
                    raise
                context, leaf = self._split_parent(path)
                try:
                    f = context.create_file(leaf)
                except AttributeError:
                    raise UnixError("EROFS", f"{path}: context cannot create files")
            access = (
                AccessRights.READ_WRITE
                if (flags & 0o3) in (O_WRONLY, O_RDWR)
                else AccessRights.READ_ONLY
            )
            f.check_access(access)
            if flags & O_TRUNC and (flags & 0o3) != O_RDONLY:
                f.set_length(0)
            entry = OpenFile(f, flags)
            if flags & O_APPEND:
                entry.position = f.get_length()
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = entry
        return fd

    def _entry(self, fd: int) -> OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise UnixError("EBADF", str(fd))

    def read(self, fd: int, size: int) -> bytes:
        entry = self._entry(fd)
        if not entry.readable:
            raise UnixError("EBADF", "fd not open for reading")
        if size < 0:
            raise UnixError("EINVAL", "negative size")
        with self._call:
            data = entry.file.read(entry.position, size)
        entry.position += len(data)
        return data

    def write(self, fd: int, data: bytes) -> int:
        entry = self._entry(fd)
        if not entry.writable:
            raise UnixError("EBADF", "fd not open for writing")
        with self._call:
            if entry.flags & O_APPEND:
                entry.position = entry.file.get_length()
            written = entry.file.write(entry.position, data)
        entry.position += written
        return written

    def pread(self, fd: int, size: int, offset: int) -> bytes:
        entry = self._entry(fd)
        if not entry.readable:
            raise UnixError("EBADF", "fd not open for reading")
        if size < 0 or offset < 0:
            raise UnixError("EINVAL", "negative size or offset")
        with self._call:
            return entry.file.read(offset, size)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        entry = self._entry(fd)
        if not entry.writable:
            raise UnixError("EBADF", "fd not open for writing")
        if offset < 0:
            raise UnixError("EINVAL", "negative offset")
        with self._call:
            return entry.file.write(offset, data)

    def lseek(self, fd: int, offset: int, whence: int = SEEK_SET) -> int:
        entry = self._entry(fd)
        if whence == SEEK_SET:
            new = offset
        elif whence == SEEK_CUR:
            new = entry.position + offset
        elif whence == SEEK_END:
            with self._call:
                new = entry.file.get_length() + offset
        else:
            raise UnixError("EINVAL", f"whence {whence}")
        if new < 0:
            raise UnixError("EINVAL", "negative seek")
        entry.position = new
        return new

    def fstat(self, fd: int) -> FileAttributes:
        entry = self._entry(fd)
        with self._call:
            return entry.file.get_attributes()

    def stat(self, path: str) -> FileAttributes:
        with self._client(path):
            return self._resolve_file(path).get_attributes()

    def ftruncate(self, fd: int, length: int) -> None:
        entry = self._entry(fd)
        if not entry.writable:
            raise UnixError("EBADF", "fd not open for writing")
        if length < 0:
            raise UnixError("EINVAL", "negative length")
        with self._call:
            entry.file.set_length(length)

    def fsync(self, fd: int) -> None:
        entry = self._entry(fd)
        with self._call:
            entry.file.sync()

    def close(self, fd: int) -> None:
        self._entry(fd)
        del self._fds[fd]

    # ------------------------------------------------------- directory calls
    def mkdir(self, path: str):
        with self._client(path):
            context, leaf = self._split_parent(path)
            try:
                return context.create_dir(leaf)
            except AttributeError:
                raise UnixError("EROFS", f"{path}: context cannot create dirs")

    def unlink(self, path: str) -> None:
        with self._client(path):
            context, leaf = self._split_parent(path)
            context.unbind(leaf)

    def listdir(self, path: str = "") -> List[str]:
        with self._client(path):
            return [name for name, _ in self._context(path).list_bindings()]

    def rename(self, old: str, new: str) -> None:
        parent, _, old_leaf = old.strip("/").rpartition("/")
        new_parent, _, new_leaf = new.strip("/").rpartition("/")
        if parent != new_parent:
            raise UnixError("EXDEV", "cross-directory rename unsupported here")
        with self._client(old):
            try:
                self._context(parent).rename(old_leaf, new_leaf)
            except AttributeError:
                raise UnixError("EROFS", "context cannot rename")

    def open_fds(self) -> int:
        return len(self._fds)
