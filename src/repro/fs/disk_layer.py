"""The disk layer — the base, non-coherent on-disk file system.

Figure 10: Spring SFS is two layers; this is the bottom one.  "The base
disk layer implements an on-disk UFS-compatible file system.  It does
not, however, implement a coherency algorithm."  Accordingly:

* it is a pager: clients (normally exactly one coherency layer) page in
  and out of it, and every data access really hits the device;
* it performs **no** coherency actions between its channels — two
  independent cache managers binding the same disk file will happily
  diverge (the coherency layer exists to prevent that, sec. 6.3);
* it maintains its own i-node/dentry cache, so open and stat need no
  disk I/O (sec. 6.4 table notes).

Files and directories are addressed by i-node through a mounted
:class:`repro.storage.volume.Volume`.

What sits directly on a volume is written once, here, for the disk layer
and for the monolithic baseline (:mod:`repro.fs.monolithic`) alike:
:class:`VolumeNaming` (the naming operations of one directory of the
volume), :class:`DiskDirectory` (the handle for a directory below the
root), :class:`VolumeOps` (the attribute half of the channel, for a
pager that owns the i-node) and :class:`VolumeLayer` (the mount
lifecycle).
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

from repro.errors import FsError, IsADirectoryError_
from repro.ipc.invocation import operation
from repro.naming import name as names
from repro.naming.context import NamingContext
from repro.storage.block_device import BlockDevice
from repro.storage.inode import FileType
from repro.storage.volume import Volume
from repro.types import AccessRights
from repro.vm.channel import BindResult
from repro.vm.memory_object import CacheManager

from repro.fs.attributes import FileAttributes
from repro.fs.base import BaseLayer, ChannelOps
from repro.fs.file import File


class DiskFile(File):
    """An open handle to one on-disk file (per-open state)."""

    def __init__(self, layer: "DiskLayer", ino: int, charge_open: bool = True) -> None:
        super().__init__(layer.domain)
        self.layer = layer
        self.ino = ino
        self.source_key: Hashable = ("disk", layer.oid, ino)
        if charge_open:  # a listing's handle pays no open-state cost
            layer.world.charge.fs_open_state()

    # --- memory_object ------------------------------------------------------
    @operation
    def bind(
        self,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        length: int,
    ) -> BindResult:
        return self.layer.bind_source(
            self.source_key,
            cache_manager,
            requested_access,
            offset,
            label=f"disk:ino{self.ino}",
        )

    @operation
    def get_length(self) -> int:
        return self.layer.volume.iget(self.ino).size

    @operation
    def set_length(self, length: int) -> None:
        self.layer.volume.truncate(self.ino, length)

    # --- file ------------------------------------------------------------------
    @operation
    def read(self, offset: int, size: int) -> bytes:
        world = self.layer.world
        world.charge.fs_read_cpu()
        data = self.layer.volume.read_data(self.ino, offset, size)
        world.charge.memcpy(len(data))
        return data

    @operation
    def write(self, offset: int, data: bytes) -> int:
        world = self.layer.world
        world.charge.fs_write_cpu()
        world.charge.memcpy(len(data))
        self.layer.volume.write_data(self.ino, offset, data)
        return len(data)

    @operation
    def get_attributes(self) -> FileAttributes:
        self.layer.world.charge.fs_attr_copy()
        return FileAttributes.from_inode(self.layer.volume.iget(self.ino))

    @operation
    def check_access(self, access: AccessRights) -> None:
        self.layer.world.charge.fs_access_check()
        inode = self.layer.volume.iget(self.ino)  # raises if freed
        if inode.is_dir and access.writable:
            raise IsADirectoryError_("cannot open a directory for writing")

    @operation
    def sync(self) -> None:
        self.layer.volume.commit()


class VolumeNaming(NamingContext):
    """The naming face of a layer that sits directly on a volume,
    written once: the naming operations of the directory ``dir_ino`` of
    ``layer``'s volume.  Runs on :class:`DiskDirectory` handles and on
    the layer root — the layer root *is* the volume's root directory.

    Name resolution is the real thing: component-by-component through
    the volume's dentry cache, with directory data read from disk on
    cold lookups.  What the layers differ in is behind three methods of
    ``layer``: ``make_object`` (the handle an i-node is opened, listed
    or unlinked as) and the hooks ``created_file`` and ``unlinked``.
    """

    @operation
    def resolve(self, name: str) -> object:
        layer = self.layer
        current = self.dir_ino
        for component in names.split_name(name):
            layer.world.charge.fs_resolve()
            # Looking a name up in a regular file is the volume's
            # NotADirectoryError_.
            current = layer.volume.lookup(current, component)
        return layer.make_object(current)

    @operation
    def bind(self, name: str, obj: object) -> None:
        raise FsError(
            "volume directories hold files, not arbitrary bindings; "
            "use create_file/create_dir"
        )

    @operation
    def unbind(self, name: str) -> object:
        """Unlink.  Returns a handle to the (possibly now free) file."""
        names.validate_component(name)
        layer = self.layer
        ino = layer.volume.lookup(self.dir_ino, name)
        obj = layer.make_object(ino, charge_open=False)
        layer.volume.unlink(self.dir_ino, name)
        layer.unlinked(ino)
        return obj

    @operation
    def rebind(self, name: str, obj: object) -> object:
        raise FsError("volume directories do not support rebind")

    @operation
    def list_bindings(self) -> List[Tuple[str, object]]:
        layer = self.layer
        return [
            (entry_name, layer.make_object(ino, charge_open=False))
            for entry_name, ino in sorted(layer.volume.readdir(self.dir_ino).items())
        ]

    @operation
    def create_file(self, name: str) -> File:
        names.validate_component(name)
        inode = self.layer.volume.create(self.dir_ino, name, FileType.REGULAR)
        return self.layer.created_file(inode.ino)

    @operation
    def create_dir(self, name: str) -> "DiskDirectory":
        names.validate_component(name)
        inode = self.layer.volume.create(self.dir_ino, name, FileType.DIRECTORY)
        return DiskDirectory(self.layer, inode.ino)

    @operation
    def rename(self, old_name: str, new_name: str) -> None:
        names.validate_component(new_name)
        self.layer.volume.rename(self.dir_ino, old_name, self.dir_ino, new_name)


class DiskDirectory(VolumeNaming):
    """A directory of a volume, exported as a naming context."""

    def __init__(self, layer: "VolumeLayer", dir_ino: int) -> None:
        super().__init__(layer.domain)
        self.layer = layer
        self.dir_ino = dir_ino


class VolumeOps(ChannelOps):
    """The attribute half of the channel for a pager that owns the
    i-node: source keys are ``(tag, layer oid, ino)``."""

    def attr_page_in(self, source_key, pager_object) -> FileAttributes:
        return FileAttributes.from_inode(self.layer.volume.iget(source_key[2]))

    def attr_write_out(self, source_key, pager_object, attrs) -> None:
        ino = source_key[2]
        attrs.apply_to_inode(self.layer.volume.iget(ino))
        self.layer.volume.mark_dirty(ino)


class VolumeLayer(VolumeNaming, BaseLayer):
    """The stackable_fs face of one mounted volume: the layer doubles as
    the volume's root directory context, so binding it into the name
    space exposes the whole tree.  A subclass supplies ``make_object``
    and ``fs_type`` and overrides what it does differently."""

    max_under = 0

    def __init__(self, domain, device: BlockDevice, format_device: bool = False):
        super().__init__(domain)
        self.device = device
        self._mounted(Volume.mkfs(device) if format_device else Volume.mount(device))

    def _mounted(self, volume: Volume) -> None:
        self.volume = volume
        #: The root is the volume's root directory (:class:`VolumeNaming`).
        self.dir_ino = volume.sb.root_ino

    def created_file(self, ino: int) -> File:
        """Hook: the handle ``create_file`` returns for its new i-node."""
        return self.make_object(ino)

    def unlinked(self, ino: int) -> None:
        """Hook: ``ino`` just lost a name (and may now be free); drop
        whatever per-file state the layer keys by it."""

    # --- fs ------------------------------------------------------------------------------
    def _sync_impl(self) -> None:
        self.volume.sync()

    # --- mount lifecycle -----------------------------------------------------------------
    def unmount(self) -> int:
        """Cleanly detach the on-disk state: ordered metadata flush, then
        the superblock goes CLEAN (see :meth:`repro.storage.volume.Volume.unmount`).
        The layer keeps serving; the next mutation lazily re-dirties the
        superblock.  Returns blocks written."""
        return self.volume.unmount()

    def remount(self) -> None:
        """Drop all in-memory volume state and re-mount from the device —
        the in-process equivalent of a reboot of this layer's server."""
        self._mounted(Volume.mount(self.device))


class DiskOps(VolumeOps):
    """Disk-layer dispatch: every op hits the volume; no coherency
    actions between channels (that is the coherency layer's job)."""

    def page_in(self, source_key, pager_object, offset, size, access) -> bytes:
        # Non-coherent by design: no actions against other channels.
        return self.layer.volume.read_data(source_key[2], offset, size)

    def page_in_range(
        self, source_key, pager_object, offset, min_size, max_size, access
    ) -> bytes:
        """Clustering: serve as much of [min, max] as one pass of
        contiguous multi-block transfers provides — the paper sec. 8
        'return more data than strictly needed' opportunity.  Short of
        the minimum only at EOF (callers zero-pad pages)."""
        return self.layer.volume.read_data(source_key[2], offset, max_size)

    def page_out(self, source_key, pager_object, offset, size, data, retain) -> None:
        self.layer.volume.write_back(source_key[2], offset, data[:size])

    def synced(self, source_key) -> None:
        # A pager ``sync`` is how an fsync from a cache manager above
        # ends: when it returns, every run it wrote must have left the
        # block store's userspace buffer.  One flush for all of them,
        # free in virtual time like every ``BlockDevice.flush``.
        self.layer.volume.device.flush()


def _through_root(name: str):
    """An operation of the layer root that its root :class:`DiskDirectory`
    serves: one more (local) invocation than running the body on the
    root itself.  The four mutations have always taken this hop, and
    every calibrated figure that creates a file counts it."""

    def forward(self, *args):
        return getattr(self._root, name)(*args)

    forward.__name__ = name
    return operation(forward)


class DiskLayer(VolumeLayer):
    """The disk layer: a :class:`VolumeLayer` whose files are
    :class:`DiskFile` handles straight onto the volume."""

    ops_class = DiskOps

    def _mounted(self, volume: Volume) -> None:
        super()._mounted(volume)
        self._root = DiskDirectory(self, self.dir_ino)

    def fs_type(self) -> str:
        return "disk"

    def make_object(self, ino: int, charge_open: bool = True) -> object:
        """Materialize a handle for an i-node: DiskFile or DiskDirectory."""
        if self.volume.iget(ino).is_dir:
            return DiskDirectory(self, ino)
        return DiskFile(self, ino, charge_open)

    unbind = _through_root("unbind")
    create_file = _through_root("create_file")
    create_dir = _through_root("create_dir")
    rename = _through_root("rename")
