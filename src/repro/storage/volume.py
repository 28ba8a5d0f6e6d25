"""The on-disk file system engine.

A :class:`Volume` is the UFS-like structure the paper's *disk layer*
manages (sec. 6.2, Figure 10): superblock, block bitmaps, i-node table,
directories, and file data, all living on a :class:`BlockDevice` — and,
since PR 9, in the version-2 FFS-style on-disk format (docs/ONDISK.md):
a versioned superblock with a clean/dirty state flag and cylinder-group
regions each holding a block bitmap, an i-node table slice, and data
blocks.  Put the device on an
:class:`~repro.storage.blockstore.ImageBlockStore` and the whole volume
survives process restarts.

Caching policy mirrors the paper's description of the disk layer:

* "The disk layer maintains its own cache to handle open and stat
  operations without requiring disk I/Os" — the i-node table and a
  dentry cache are memory-resident (plus a write-back metadata buffer
  cache for bitmap and indirect blocks);
* "but reads and writes to the disk layer do require disk I/Os" — file
  *data* blocks are never cached here.  Data caching belongs to the
  coherency layer and the VMMs above.

Durability lifecycle: ``mkfs`` writes the superblock DIRTY; a clean
:meth:`unmount` flushes everything in the recovery-safe order (bitmaps,
then indirect blocks, then i-nodes) and only then writes the superblock
CLEAN.  :meth:`mount` records whether the previous session unmounted
cleanly (:attr:`was_clean`) and lazily re-dirties the on-disk
superblock on the first mutation.  A crash between flush steps can
therefore leak allocated-but-unreferenced blocks but never corrupt a
referenced one; :meth:`fsck` detects the dirty superblock and, with
``repair=True``, frees leaks, reclaims lost allocations, duplicates
doubly-claimed blocks, prunes dangling entries, and fixes link counts.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    DirectoryNotEmptyError,
    FileExistsError_,
    FileNotFoundError_,
    IsADirectoryError_,
    NoSpaceError,
    NotADirectoryError_,
    OutOfRangeError,
    StorageError,
)
from repro.storage.allocator import BlockAllocator
from repro.storage.block_device import BlockDevice
from repro.storage.directory import pack_entries, unpack_entries
from repro.storage.inode import INODE_SIZE, NUM_DIRECT, FileType, Inode
from repro.storage.layout import STATE_CLEAN, STATE_DIRTY, SuperBlock
from repro.vm.page import index_runs


class Volume:
    """A mounted UFS-like volume."""

    def __init__(self, device: BlockDevice, superblock: SuperBlock) -> None:
        self.device = device
        self.sb = superblock
        self._pointers_per_block = superblock.block_size // 4
        self._groups = superblock.groups()
        # In-memory i-node table image + dirty tracking.
        self._inodes: List[Inode] = []
        self._dirty_inodes: Set[int] = set()
        # Per-group free-i-node bookkeeping (count + lowest-free scan
        # hint), kept so bulk ingest stays O(1) amortized per i-node
        # while preserving exact first-fit lowest-free semantics.
        self._ino_free: List[int] = [0] * len(self._groups)
        self._ino_hint: List[int] = [0] * len(self._groups)
        # Dentry cache: (dir_ino, name) -> ino.
        self._dentries: Dict[Tuple[int, str], int] = {}
        # Metadata buffer cache (bitmap + indirect blocks only).
        self._meta: Dict[int, bytearray] = {}
        self._dirty_meta: Set[int] = set()
        self.allocator: Optional[BlockAllocator] = None
        #: Whether the on-disk superblock said CLEAN when this volume
        #: was mounted (mkfs volumes are trivially "clean": there is
        #: nothing stale to check).
        self.was_clean = True
        #: True while the on-disk superblock is known to say CLEAN; the
        #: first mutation then re-writes it DIRTY (lazy, so the classic
        #: mkfs-and-run workloads never pay an extra superblock write).
        self._sb_clean_on_disk = False
        self.unmounted = False

    # ------------------------------------------------------------------ setup
    @classmethod
    def mkfs(
        cls,
        device: BlockDevice,
        inode_count: int = 1024,
        cylinder_groups: int = 1,
    ) -> "Volume":
        """Format ``device`` and return the mounted volume."""
        sb = SuperBlock.compute(
            device.block_size, device.num_blocks, inode_count, cylinder_groups
        )
        sb.state = STATE_DIRTY
        volume = cls(device, sb)
        volume.allocator = BlockAllocator(
            sb.num_blocks,
            sb.data_start,
            groups=[(g.start, g.data_start, g.end) for g in volume._groups],
        )
        volume._inodes = [Inode(ino=i) for i in range(sb.inode_count)]
        # i-node 0 is reserved (0 marks "no entry" in directories).
        volume._inodes[0].type = FileType.REGULAR
        volume._inodes[0].nlink = 1
        root = volume._inodes[sb.root_ino]
        root.type = FileType.DIRECTORY
        root.nlink = 1
        now = volume._now()
        root.atime_us = root.mtime_us = root.ctime_us = now
        volume._dirty_inodes.update({0, sb.root_ino})
        volume._init_ino_tracking()
        device.write_block(0, sb.pack())
        volume.sync()
        volume._register()
        return volume

    @classmethod
    def mount(cls, device: BlockDevice) -> "Volume":
        """Mount an already-formatted device, loading metadata caches.

        Records whether the volume was cleanly unmounted
        (:attr:`was_clean`); the on-disk superblock is re-marked DIRTY
        lazily, on the first mutation."""
        sb = SuperBlock.unpack(device.read_block(0))
        was_clean = sb.state == STATE_CLEAN
        sb.state = STATE_DIRTY
        volume = cls(device, sb)
        volume.was_clean = was_clean
        volume._sb_clean_on_disk = was_clean
        groups = volume._groups
        # A group's bitmap and its i-node table slice are each one
        # contiguous region (docs/ONDISK.md): one transfer per region.
        volume.allocator = BlockAllocator.from_group_bitmaps(
            sb.num_blocks,
            sb.data_start,
            [(g.start, g.data_start, g.end) for g in groups],
            [device.read_block(g.bitmap_start, g.bitmap_blocks) for g in groups],
        )
        inodes: List[Inode] = [None] * sb.inode_count  # type: ignore[list-item]
        for group in groups:
            raw = device.read_block(group.inode_start, group.inode_blocks)
            for block_index in range(group.inode_blocks):
                at = block_index * sb.block_size
                for ino in volume._table_block_inos(group, block_index):
                    inodes[ino] = Inode.unpack(ino, raw[at : at + INODE_SIZE])
                    at += INODE_SIZE
        volume._inodes = inodes
        volume._init_ino_tracking()
        volume._register()
        return volume

    def _register(self) -> None:
        """Let the world track this volume so :meth:`repro.world.World.save`
        can quiesce every mounted volume in one sweep."""
        register = getattr(self.device.world, "register_volume", None)
        if register is not None:
            register(self)

    def _init_ino_tracking(self) -> None:
        for gi, group in enumerate(self._groups):
            free = 0
            for local in range(group.inode_count):
                ino = group.ino_base + local
                if ino < self.sb.inode_count and not self._inodes[ino].allocated:
                    free += 1
            self._ino_free[gi] = free
            self._ino_hint[gi] = 0

    def _now(self) -> int:
        return int(self.device.world.clock.now_us)

    # ------------------------------------------------------------- inode access
    def iget(self, ino: int) -> Inode:
        """Fetch an i-node from the memory-resident table (no disk I/O)."""
        if not 0 <= ino < self.sb.inode_count:
            raise StorageError(f"i-node {ino} out of range")
        inode = self._inodes[ino]
        if not inode.allocated:
            raise FileNotFoundError_(f"i-node {ino} is free")
        return inode

    def mark_dirty(self, ino: int) -> None:
        self._dirty_inodes.add(ino)
        if self._sb_clean_on_disk:
            self._write_sb_state(STATE_DIRTY)

    def _write_sb_state(self, state: int) -> None:
        """Persist the superblock with ``state`` — the two edges of the
        clean/dirty lifecycle (mount-side lazy dirtying and the final
        write of a clean unmount)."""
        self.sb.state = state
        self.device.write_block(0, self.sb.pack())
        self._sb_clean_on_disk = state == STATE_CLEAN
        if state == STATE_DIRTY:
            self.unmounted = False

    def _alloc_inode(self, ftype: FileType, parent_ino: Optional[int] = None) -> Inode:
        """First-fit i-node allocation with FFS-style group placement:
        directories go to the group with the most free i-nodes (spread),
        files go to their parent directory's group (locality).  With one
        group this is exactly the classic lowest-free-i-node scan."""
        ngroups = len(self._groups)
        if ngroups == 1:
            order = [0]
        else:
            if ftype is FileType.DIRECTORY:
                preferred = max(
                    range(ngroups), key=lambda g: (self._ino_free[g], -g)
                )
            elif parent_ino is not None:
                preferred = self.sb.group_of_ino(parent_ino)
            else:
                preferred = 0
            order = [preferred] + [g for g in range(ngroups) if g != preferred]
        for gi in order:
            if self._ino_free[gi] == 0:
                continue
            group = self._groups[gi]
            for local in range(self._ino_hint[gi], group.inode_count):
                ino = group.ino_base + local
                if ino >= self.sb.inode_count:
                    break
                inode = self._inodes[ino]
                if inode.allocated:
                    continue
                inode.reset(ftype)
                now = self._now()
                inode.atime_us = inode.mtime_us = inode.ctime_us = now
                self._ino_hint[gi] = local + 1
                self._ino_free[gi] -= 1
                self.mark_dirty(inode.ino)
                return inode
        raise NoSpaceError("no free i-nodes")

    # --------------------------------------------------------------- block map
    def _meta_read(self, block: int) -> bytearray:
        cached = self._meta.get(block)
        if cached is None:
            cached = bytearray(self.device.read_block(block))
            self._meta[block] = cached
        return cached

    def _meta_write(self, block: int, data: bytearray) -> None:
        self._meta[block] = data
        self._dirty_meta.add(block)
        if self._sb_clean_on_disk:
            self._write_sb_state(STATE_DIRTY)

    def _pointer(self, block: int, slot: int) -> int:
        raw = self._meta_read(block)
        return int.from_bytes(raw[slot * 4 : slot * 4 + 4], "little")

    def _set_pointer(self, block: int, slot: int, value: int) -> None:
        raw = self._meta_read(block)
        raw[slot * 4 : slot * 4 + 4] = value.to_bytes(4, "little")
        self._dirty_meta.add(block)
        if self._sb_clean_on_disk:
            self._write_sb_state(STATE_DIRTY)

    def bmap(self, inode: Inode, file_block: int, allocate: bool = False) -> int:
        """File block index -> device block index; 0 means a hole.

        With ``allocate=True`` missing blocks (and any needed indirect
        blocks) are allocated, preferring the i-node's own cylinder
        group."""
        assert self.allocator is not None
        ppb = self._pointers_per_block
        hint = self.sb.group_of_ino(inode.ino)
        if file_block < NUM_DIRECT:
            block = inode.direct[file_block]
            if block == 0 and allocate:
                block = self.allocator.allocate(hint)
                inode.direct[file_block] = block
                self.mark_dirty(inode.ino)
            return block
        file_block -= NUM_DIRECT
        if file_block < ppb:
            if inode.indirect == 0:
                if not allocate:
                    return 0
                inode.indirect = self.allocator.allocate(hint)
                self._meta_write(inode.indirect, bytearray(self.sb.block_size))
                self.mark_dirty(inode.ino)
            block = self._pointer(inode.indirect, file_block)
            if block == 0 and allocate:
                block = self.allocator.allocate(hint)
                self._set_pointer(inode.indirect, file_block, block)
            return block
        file_block -= ppb
        if file_block >= ppb * ppb:
            raise NoSpaceError("file exceeds maximum size for this geometry")
        outer, inner = divmod(file_block, ppb)
        if inode.dbl_indirect == 0:
            if not allocate:
                return 0
            inode.dbl_indirect = self.allocator.allocate(hint)
            self._meta_write(inode.dbl_indirect, bytearray(self.sb.block_size))
            self.mark_dirty(inode.ino)
        level1 = self._pointer(inode.dbl_indirect, outer)
        if level1 == 0:
            if not allocate:
                return 0
            level1 = self.allocator.allocate(hint)
            self._meta_write(level1, bytearray(self.sb.block_size))
            self._set_pointer(inode.dbl_indirect, outer, level1)
        block = self._pointer(level1, inner)
        if block == 0 and allocate:
            block = self.allocator.allocate(hint)
            self._set_pointer(level1, inner, block)
        return block

    def _walk(self, inode: Inode):
        """Everything ``inode`` owns, in file order, as ``(file_block,
        block, holder, slot)``.  ``file_block`` is None for a pointer
        block, which comes before what it points to.  ``holder, slot``
        say where the pointer to ``block`` lives — ``slot`` of pointer
        block ``holder``, or of the i-node's own pointers when
        ``holder`` is 0 — which is what :meth:`_repoint` stores
        through, so changing a mapping needs no second descent."""
        for slot, block in enumerate(inode.direct):
            if block:
                yield slot, block, 0, slot
        ppb = self._pointers_per_block
        yield from self._walk_tree(inode.indirect, 0, NUM_DIRECT, 1, NUM_DIRECT)
        yield from self._walk_tree(
            inode.dbl_indirect, 0, NUM_DIRECT + 1, ppb, NUM_DIRECT + ppb
        )

    def _walk_tree(self, block: int, holder: int, slot: int, span: int, base: int):
        """:meth:`_walk` below one pointer: the tree under pointer block
        ``block`` (0: there is none), each of whose slots covers
        ``span`` file blocks, the first of them ``base``.  A pointer
        outside the data region is yielded but not descended."""
        if not block:
            return
        yield None, block, holder, slot
        if not self.sb.is_data_block(block):
            return
        for index in range(self._pointers_per_block):
            child = self._pointer(block, index)
            if child and span == 1:
                yield base + index, child, block, index
            elif child:
                yield from self._walk_tree(
                    child, block, index,
                    span // self._pointers_per_block, base + index * span,
                )

    def _repoint(self, inode: Inode, holder: int, slot: int, block: int) -> None:
        """Point the file block whose pointer :meth:`_walk` found at
        ``holder, slot`` at ``block`` — 0 unmaps it (truncate, fsck's
        cleared pointers); fsck's duplicate-block repair remaps it."""
        if holder:
            self._set_pointer(holder, slot, block)
            return
        if slot < NUM_DIRECT:
            inode.direct[slot] = block
        elif slot == NUM_DIRECT:
            inode.indirect = block
        else:
            inode.dbl_indirect = block
        self.mark_dirty(inode.ino)

    def _mapped_blocks(self, inode: Inode) -> List[Tuple[int, int]]:
        """All (file_block, device_block) pairs mapped by an i-node."""
        return [(fb, block) for fb, block, _, _ in self._walk(inode) if fb is not None]

    # ----------------------------------------------------------------- file data
    def _runs(
        self, inode: Inode, first: int, count: int, allocate: bool = False
    ) -> List[List[int]]:
        """Map file blocks ``[first, first + count)`` and coalesce them
        into ``[device_block, index, length]`` runs: ``length`` file
        blocks, starting at the ``index``-th of the range, that lie on
        consecutive device blocks from ``device_block`` — one device
        transfer.  ``device_block`` 0 is a run of holes."""
        runs: List[List[int]] = []
        for index in range(count):
            block = self.bmap(inode, first + index, allocate)
            if runs:
                last = runs[-1]
                # The next device block of a mapped run, 0 after a hole.
                if block == (last[0] and last[0] + last[2]):
                    last[2] += 1
                    continue
            runs.append([block, index, 1])
        return runs

    def read_data(self, ino: int, offset: int, size: int) -> bytes:
        """Read file data, one device transfer per physically contiguous
        run of blocks (what makes read-ahead pay, paper sec. 8); holes
        read as zeros without disk I/O."""
        inode = self.iget(ino)
        if offset >= inode.size:
            return b""
        size = min(size, inode.size - offset)
        bs = self.sb.block_size
        first, skip = divmod(offset, bs)
        pieces = []
        for block, _, length in self._runs(inode, first, (skip + size + bs - 1) // bs):
            if block:
                pieces.append(self.device.read_block(block, length))
            else:
                pieces.append(bytes(length * bs))
        data = b"".join(pieces)
        inode.atime_us = self._now()
        self.mark_dirty(ino)
        return data[skip : skip + size]

    def write_data(self, ino: int, offset: int, data: bytes) -> None:
        """Write file data, allocating blocks and growing size as
        needed: one device transfer per physically contiguous run of
        blocks, read-modify-write only for an unaligned head or a
        partial tail block."""
        if offset < 0:
            raise OutOfRangeError(f"write at negative offset {offset}")
        inode = self.iget(ino)
        bs = self.sb.block_size
        size = len(data)
        first, skip = divmod(offset, bs)
        end = skip + size
        # An empty write maps (and allocates) nothing.
        count = (end + bs - 1) // bs if size else 0
        runs = self._runs(inode, first, count, allocate=True)
        if count and (skip or end % bs):
            # Read-modify-write: the unaligned head block and the partial
            # tail block are read (once, when they are the same block) and
            # go out with the run they belong to.
            buffer = bytearray(count * bs)
            if skip:
                buffer[:bs] = self.device.read_block(runs[0][0])
            if end % bs and not (skip and count == 1):
                block, _, length = runs[-1]
                buffer[-bs:] = self.device.read_block(block + length - 1)
            buffer[skip:end] = data
            data = memoryview(buffer)
        for block, index, length in runs:
            self.device.write_block(block, data[index * bs : (index + length) * bs])
        if offset + size > inode.size:
            inode.size = offset + size
        now = self._now()
        inode.mtime_us = now
        inode.ctime_us = now
        self.mark_dirty(ino)

    def write_back(self, ino: int, offset: int, data) -> None:
        """Write back a cache manager's page-padded ``data`` at
        ``offset``: the padding never extends the file.  Cache managers
        push attributes — the authoritative length — before data, so
        whatever lies past the i-node's size is padding."""
        usable = min(len(data), self.iget(ino).size - offset)
        if usable > 0:
            self.write_data(ino, offset, data[:usable])

    def truncate(self, ino: int, length: int) -> None:
        """Shrink or extend (sparsely) a file to ``length`` bytes."""
        assert self.allocator is not None
        if length < 0:
            raise OutOfRangeError(f"truncate to negative length {length}")
        inode = self.iget(ino)
        if length < inode.size:
            bs = self.sb.block_size
            keep_blocks = (length + bs - 1) // bs
            for file_block, block, holder, slot in list(self._walk(inode)):
                if file_block is not None and file_block >= keep_blocks:
                    self.allocator.free(block)
                    self._repoint(inode, holder, slot, 0)
            # Zero the tail of a retained partial boundary block, so a
            # later extension reads zeros rather than resurrected bytes.
            within = length % bs
            if within:
                boundary = self.bmap(inode, length // bs)
                if boundary:
                    raw = bytearray(self.device.read_block(boundary))
                    raw[within:] = bytes(bs - within)
                    self.device.write_block(boundary, bytes(raw))
        inode.size = length
        now = self._now()
        inode.mtime_us = now
        inode.ctime_us = now
        self.mark_dirty(ino)

    # ----------------------------------------------------------------- directories
    def _dir_entries(self, dir_ino: int) -> Dict[str, int]:
        inode = self.iget(dir_ino)
        if not inode.is_dir:
            raise NotADirectoryError_(f"i-node {dir_ino} is not a directory")
        return unpack_entries(self.read_data(dir_ino, 0, inode.size))

    def _write_dir(self, dir_ino: int, entries: Dict[str, int]) -> None:
        packed = pack_entries(entries)
        self.truncate(dir_ino, 0)
        if packed:
            self.write_data(dir_ino, 0, packed)

    def lookup(self, dir_ino: int, name: str) -> int:
        """Name -> i-node within a directory, through the dentry cache."""
        cached = self._dentries.get((dir_ino, name))
        if cached is not None:
            return cached
        entries = self._dir_entries(dir_ino)
        try:
            ino = entries[name]
        except KeyError:
            raise FileNotFoundError_(f"{name!r} not found in directory {dir_ino}")
        self._dentries[(dir_ino, name)] = ino
        return ino

    def readdir(self, dir_ino: int) -> Dict[str, int]:
        return self._dir_entries(dir_ino)

    def create(self, dir_ino: int, name: str, ftype: FileType) -> Inode:
        return self._inodes[self.create_many(dir_ino, [name], ftype)[0]]

    def create_many(
        self, dir_ino: int, names: Sequence[str], ftype: FileType = FileType.REGULAR
    ) -> List[int]:
        """Bulk create: allocate one i-node per name and rewrite the
        directory ONCE — the ingest path for building large trees
        (benchmarks, migration tools) without the per-create directory
        rewrite going quadratic."""
        entries = self._dir_entries(dir_ino)
        inos: List[int] = []
        for name in names:
            if name in entries:
                raise FileExistsError_(
                    f"{name!r} already exists in directory {dir_ino}"
                )
            inode = self._alloc_inode(ftype, parent_ino=dir_ino)
            inode.nlink = 1
            entries[name] = inode.ino
            inos.append(inode.ino)
        self._write_dir(dir_ino, entries)
        # Cached only once the directory holds them.
        self._dentries.update({(dir_ino, name): ino for name, ino in zip(names, inos)})
        return inos

    def link(self, dir_ino: int, name: str, target_ino: int) -> None:
        """Create an additional hard link to a regular file."""
        target = self.iget(target_ino)
        if target.is_dir:
            raise IsADirectoryError_("hard links to directories are not allowed")
        entries = self._dir_entries(dir_ino)
        if name in entries:
            raise FileExistsError_(f"{name!r} already exists")
        entries[name] = target_ino
        self._write_dir(dir_ino, entries)
        target.nlink += 1
        target.ctime_us = self._now()
        self.mark_dirty(target_ino)
        self._dentries[(dir_ino, name)] = target_ino

    def unlink(self, dir_ino: int, name: str) -> None:
        entries = self._dir_entries(dir_ino)
        try:
            ino = entries.pop(name)
        except KeyError:
            raise FileNotFoundError_(f"{name!r} not found in directory {dir_ino}")
        inode = self.iget(ino)
        if inode.is_dir and self._dir_entries(ino):
            raise DirectoryNotEmptyError(f"directory {name!r} is not empty")
        self._write_dir(dir_ino, entries)
        self._dentries.pop((dir_ino, name), None)
        inode.nlink -= 1
        inode.ctime_us = self._now()
        self.mark_dirty(ino)
        if inode.nlink == 0:
            self._free_inode(inode)

    def rename(
        self, src_dir: int, src_name: str, dst_dir: int, dst_name: str
    ) -> None:
        src_entries = self._dir_entries(src_dir)
        if src_name not in src_entries:
            raise FileNotFoundError_(f"{src_name!r} not found")
        dst_entries = (
            src_entries if dst_dir == src_dir else self._dir_entries(dst_dir)
        )
        if dst_name in dst_entries and dst_entries[dst_name] != src_entries[src_name]:
            raise FileExistsError_(f"{dst_name!r} already exists")
        ino = src_entries.pop(src_name)
        dst_entries[dst_name] = ino
        self._write_dir(src_dir, src_entries)
        if dst_dir != src_dir:
            self._write_dir(dst_dir, dst_entries)
        self._dentries.pop((src_dir, src_name), None)
        self._dentries[(dst_dir, dst_name)] = ino

    def _free_inode(self, inode: Inode) -> None:
        """Release an i-node and every allocated data block it owns (after
        a crash, fsck releases i-nodes whose blocks the bitmap never
        recorded)."""
        assert self.allocator is not None
        for file_block, block, _, _ in list(self._walk(inode)):
            if self.allocator.is_allocated(block):
                self.allocator.free(block)
            if file_block is None:
                self._meta.pop(block, None)
                self._dirty_meta.discard(block)
        inode.reset(FileType.FREE)
        gi = self.sb.group_of_ino(inode.ino)
        self._ino_free[gi] += 1
        local = inode.ino - self._groups[gi].ino_base
        if local < self._ino_hint[gi]:
            self._ino_hint[gi] = local
        self.mark_dirty(inode.ino)
        stale = [key for key, value in self._dentries.items() if value == inode.ino]
        for key in stale:
            del self._dentries[key]

    # -------------------------------------------------------------------- sync
    def sync(self) -> int:
        """Flush dirty metadata to the device in the recovery-safe order
        — bitmaps first, then indirect blocks, then i-nodes — so a crash
        at any point leaves at worst allocated-but-unreferenced blocks
        (a leak fsck can free), never a referenced block the bitmap
        considers free.  Each step is a ``{device block: bytes}`` that
        goes out ascending, one transfer per run of adjacent blocks, and
        stays dirty until all of it has; steps never share a transfer.
        Returns the number of blocks written."""
        allocator, groups, bs = self.allocator, self._groups, self.sb.block_size
        assert allocator is not None
        steps = (
            # 1. The block bitmap of every group that allocated or freed.
            (
                {
                    groups[gi].bitmap_start + i: block
                    for gi in allocator.dirty_groups
                    for i, block in enumerate(allocator.group_bitmap(gi, bs))
                },
                allocator.mark_clean,
            ),
            # 2. Indirect-pointer blocks (the metadata buffer cache).
            (
                {block: self._meta[block] for block in self._dirty_meta},
                self._dirty_meta.clear,
            ),
            # 3. Every i-node table block that holds a dirty i-node.
            (
                {
                    block: b"".join(
                        self._inodes[ino].pack()
                        for ino in self._table_block_inos(group, index)
                    ).ljust(bs, b"\0")
                    for block, group, index in {
                        self._inode_table_block(ino) for ino in self._dirty_inodes
                    }
                },
                self._dirty_inodes.clear,
            ),
        )
        written = 0
        for blocks, flushed in steps:
            order = sorted(blocks)
            for start, count in index_runs(order):
                run = [blocks[block] for block in range(start, start + count)]
                self.device.write_block(start, run[0] if count == 1 else b"".join(run))
            flushed()
            written += len(order)
        return written

    def commit(self) -> None:
        """How an fsync ends: the ordered flush, then nothing of it may
        still sit in the block store's buffer."""
        self.sync()
        self.device.flush()

    def _inode_table_block(self, ino: int):
        """(device block, group, block-within-group) holding ``ino``."""
        per_block = self.sb.block_size // INODE_SIZE
        group = self._groups[self.sb.group_of_ino(ino)]
        block_index = (ino - group.ino_base) // per_block
        return (group.inode_start + block_index, group, block_index)

    def _table_block_inos(self, group, block_index: int) -> range:
        """The i-nodes stored in block ``block_index`` of ``group``'s
        table slice, in slot order — the one walk :meth:`mount` reads the
        table by and :meth:`sync` writes it by."""
        per_block = self.sb.block_size // INODE_SIZE
        first = block_index * per_block
        stop = min(
            first + per_block,
            group.inode_count,
            self.sb.inode_count - group.ino_base,
        )
        return range(group.ino_base + first, group.ino_base + stop)

    def unmount(self) -> int:
        """Cleanly detach: flush all dirty metadata (ordered), then —
        and only then — write the superblock CLEAN and push the backing
        store to its medium.  Idempotent.  Returns blocks written."""
        written = self.sync()
        if written or not self._sb_clean_on_disk:
            self._write_sb_state(STATE_CLEAN)
            written += 1
        self.device.flush()
        self.unmounted = True
        return written

    # -------------------------------------------------------------------- fsck
    def fsck(self, repair: bool = False) -> List[str]:
        """Cross-structure invariant check; returns a list of problems
        (empty = consistent).  Exercised heavily by property tests.

        Checks the volume the way a post-crash fsck would: a superblock
        that was DIRTY at mount time is itself reported, and with
        ``repair=True`` every repairable inconsistency is fixed —
        leaked blocks freed, lost allocations reclaimed, doubly-claimed
        data blocks duplicated onto fresh blocks, pointers outside the
        data region or past the end of the file cleared, i-nodes of
        unknown type cleared, dangling and cycle-closing directory
        entries pruned, orphaned i-nodes released, link counts
        corrected, and an unreadable directory emptied with what it may
        have named moved under ``/lost+found`` — after which the repairs
        are synced and the volume is considered clean."""
        assert self.allocator is not None
        problems: List[str] = []
        if not self.was_clean:
            problems.append(
                "superblock: volume was not cleanly unmounted (dirty)"
            )
        unknown = {
            inode.ino: inode
            for inode in self._inodes
            if not isinstance(inode.type, FileType)
        }
        for ino in unknown:
            problems.append(f"ino {ino}: unknown file type")
        walks = [
            (inode, list(self._walk(inode)))
            for inode in self._inodes
            if inode.allocated and inode.ino not in unknown
        ]
        claimed: Dict[int, int] = {}
        #: (i-node, block to copy or 0 to clear, holder, slot) to repoint.
        repoints: List[Tuple[Inode, int, int, int]] = []
        lost_claims: List[int] = []
        #: (ino, pointer block) whose subtree that i-node does not own.
        cut: Set[Tuple[int, int]] = set()
        bs = self.sb.block_size
        # Pointer blocks are claimed before any data block, so a block
        # that is one tree's pointer block and another's data stays with
        # the tree and the data claimant gets the copy.
        for pointers in (True, False):
            for inode, walk in walks:
                ino, max_block = inode.ino, (inode.size + bs - 1) // bs
                for file_block, block, holder, slot in walk:
                    if (file_block is None) is not pointers:
                        continue
                    if (ino, holder) in cut:
                        cut.add((ino, block))
                    elif not self.sb.is_data_block(block):
                        problems.append(f"ino {ino}: block {block} out of range")
                        repoints.append((inode, 0, holder, slot))
                    elif not pointers and inode.size and file_block >= max_block:
                        problems.append(
                            f"ino {ino}: block beyond size "
                            f"(file_block {file_block}, size {inode.size})"
                        )
                        repoints.append((inode, 0, holder, slot))
                    elif block in claimed:
                        problems.append(
                            f"block {block} claimed by ino {claimed[block]} "
                            f"and ino {ino}"
                        )
                        # The second data claimant gets a copy; the second
                        # tree through a pointer block loses the pointer.
                        if pointers:
                            cut.add((ino, block))
                        repoints.append((inode, 0 if pointers else block, holder, slot))
                    else:
                        claimed[block] = ino
                        if not self.allocator.is_allocated(block):
                            problems.append(
                                f"ino {ino}: block {block} not marked allocated"
                            )
                            lost_claims.append(block)
        # Leaked blocks: marked allocated but claimed by no i-node.
        leaked = sorted(self.allocator._used - claimed.keys())
        for block in leaked:
            problems.append(f"block {block} allocated but unreferenced (leaked)")
        # Reference counts from the directory tree.  A directory has one
        # entry naming it, so an entry naming a directory already reached
        # closes a cycle: it is pruned like a dangling one, not counted.
        refs: Dict[int, int] = {self.sb.root_ino: 1}
        dangling: List[Tuple[int, str]] = []
        unreadable: List[Inode] = []

        def walk_tree(top: int) -> None:
            stack = [top]
            while stack:
                dir_ino = stack.pop()
                try:
                    entries = self._dir_entries(dir_ino)
                except StorageError as exc:
                    problems.append(f"ino {dir_ino}: unreadable directory: {exc}")
                    unreadable.append(self._inodes[dir_ino])
                    continue
                for name, ino in entries.items():
                    target = self._inodes[ino] if 0 <= ino < len(self._inodes) else None
                    if target is None or not target.allocated or ino in unknown:
                        problems.append(f"dangling entry {name!r} -> ino {ino}")
                        dangling.append((dir_ino, name))
                    elif target.is_dir and ino in refs:
                        problems.append(f"directory cycle through ino {ino}")
                        dangling.append((dir_ino, name))
                    else:
                        refs[ino] = refs.get(ino, 0) + 1
                        if target.is_dir:
                            stack.append(ino)

        walk_tree(self.sb.root_ino)
        # An unreadable directory may have named any i-node no entry
        # reached, so none of them is proved unreferenced: each goes
        # under /lost+found, directories first so a lost subtree stays
        # whole.
        lost: List[int] = []
        for inode, _ in sorted(walks, key=lambda walk: not walk[0].is_dir):
            if unreadable and inode.ino and inode.ino not in refs:
                problems.append(f"ino {inode.ino}: unreached; to /lost+found")
                refs[inode.ino] = 1
                lost.append(inode.ino)
                if inode.is_dir:
                    walk_tree(inode.ino)
        nlink_fixes: List[Tuple[Inode, int]] = []
        orphans: List[Inode] = []
        for inode, _ in walks:
            count = refs.get(inode.ino, 0)
            if inode.ino and count != inode.nlink:
                problems.append(
                    f"ino {inode.ino}: nlink {inode.nlink} != {count} references"
                )
                if count:
                    nlink_fixes.append((inode, count))
                else:
                    orphans.append(inode)
        if not (repair and problems):
            return problems
        # The repairs, in dependency order:
        # 1. Reclaim allocations the bitmap lost (referenced blocks
        #    must be marked before anything else allocates over them).
        for block in lost_claims:
            self.allocator.claim(block)
        # 2. Resolve double claims of a data block: the second claimant
        #    gets a fresh block with a copy of the contested bytes
        #    (classic fsck block duplication; read before anything is
        #    synced).  Clear every other bad pointer — outside the data
        #    region, past the end of the file, or to a pointer block
        #    another tree holds — as FFS clears a BAD block: what it
        #    reached and nobody else claims is freed as a leak below.
        for inode, block, holder, slot in repoints:
            fresh = 0
            if block:
                fresh = self.allocator.allocate(self.sb.group_of_ino(inode.ino))
                self.device.write_block(fresh, self.device.read_block(block))
            self._repoint(inode, holder, slot, fresh)
        # 3. Release orphaned i-nodes (allocated, zero references) and
        #    clear those of unknown type, whose pointers are not
        #    trusted: their blocks go back to the free pool.
        for inode in [*unknown.values(), *orphans]:
            if not isinstance(inode.type, FileType):
                inode.reset(FileType.REGULAR)
            self._free_inode(inode)
        # 4. Free leaked blocks — after orphan release so a block both
        #    leaked and orphan-owned is freed exactly once.
        for block in leaked:
            if self.allocator.is_allocated(block):
                self.allocator.free(block)
        # 5. Prune dangling directory entries.
        for dir_ino, name in dangling:
            entries = self._dir_entries(dir_ino)
            if name in entries:
                del entries[name]
                self._write_dir(dir_ino, entries)
        # 6. Correct link counts.
        for inode, count in nlink_fixes:
            inode.nlink = count
            self.mark_dirty(inode.ino)
        # 7. An unreadable directory becomes empty, as FFS fsck clears a
        #    BAD directory block, and what it may have named goes under
        #    /lost+found as ``#<ino>``.  Its blocks are freed last, so
        #    nothing this repair allocates lands on one that failed.
        detached: List[int] = []
        for inode in unreadable:
            for file_block, block, holder, slot in list(self._walk(inode)):
                if file_block is not None:
                    detached.append(block)
                    self._repoint(inode, holder, slot, 0)
            inode.size = 0
            self.mark_dirty(inode.ino)
        if lost:
            root = self.sb.root_ino
            found = self._dir_entries(root).get("lost+found")
            if found is None:
                found = self.create(root, "lost+found", FileType.DIRECTORY).ino
            entries = self._dir_entries(found)
            entries.update({f"#{ino}": ino for ino in lost})
            self._write_dir(found, entries)
        for block in detached:
            self.allocator.free(block)
        # Then persist them; the dentry cache may name what moved.
        self._dentries.clear()
        self.sync()
        self.was_clean = True
        return problems
