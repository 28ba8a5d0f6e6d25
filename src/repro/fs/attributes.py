"""File attributes.

The stackable attribute interface (paper sec. 4.3) keeps "the access and
modified times and file length" coherent between layers; those are
exactly the fields carried here, plus the structural fields (type,
nlink) a UFS i-node exposes through stat.
"""

from __future__ import annotations

import dataclasses

from repro.storage.inode import FileType, Inode


@dataclasses.dataclass
class FileAttributes:
    """A value-type snapshot of one file's attributes."""

    size: int = 0
    atime_us: int = 0
    mtime_us: int = 0
    ctime_us: int = 0
    ftype: FileType = FileType.REGULAR
    nlink: int = 1

    def copy(self) -> "FileAttributes":
        return FileAttributes(
            self.size, self.atime_us, self.mtime_us, self.ctime_us, self.ftype, self.nlink
        )

    @classmethod
    def from_inode(cls, inode: Inode) -> "FileAttributes":
        return cls(
            size=inode.size,
            atime_us=inode.atime_us,
            mtime_us=inode.mtime_us,
            ctime_us=inode.ctime_us,
            ftype=inode.type,
            nlink=inode.nlink,
        )

    def apply_to_inode(self, inode: Inode) -> None:
        inode.size = self.size
        inode.atime_us = self.atime_us
        inode.mtime_us = self.mtime_us
        inode.ctime_us = self.ctime_us
        inode.nlink = self.nlink


@dataclasses.dataclass
class CachedAttributes:
    """A cache-manager-side attribute cache entry with dirty tracking.

    Used by every layer that caches attributes through the
    fs_pager/fs_cache protocol (coherency layer, CFS, COMPFS).
    """

    attrs: FileAttributes
    dirty: bool = False

    def touch_atime(self, now_us: int) -> None:
        self.attrs.atime_us = now_us
        self.dirty = True

    def touch_mtime(self, now_us: int) -> None:
        self.attrs.mtime_us = now_us
        self.attrs.ctime_us = now_us
        self.dirty = True

    def grow(self, size: int) -> None:
        if size > self.attrs.size:
            self.attrs.size = size
            self.dirty = True

    def set_size(self, size: int) -> None:
        if size != self.attrs.size:
            self.attrs.size = size
            self.dirty = True
