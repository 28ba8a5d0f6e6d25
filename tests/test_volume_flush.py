"""The volume's ordered flush and region mount, transfer by transfer:
every metadata region moves as a run (docs/ONDISK.md sec. 5)."""

import pytest

from repro.errors import DeviceError
from repro.storage import BlockDevice, FileType, MemoryBlockStore, Volume
from repro.storage.inode import INODE_SIZE, NUM_DIRECT
from repro.storage.layout import STATE_DIRTY, SuperBlock
from repro.types import PAGE_SIZE
from repro.world import World

PER_BLOCK = PAGE_SIZE // INODE_SIZE


class LoggingStore(MemoryBlockStore):
    """A memory store that records every write transfer it receives as
    ``(start block, blocks)``."""

    __slots__ = ("log",)

    def __init__(self, num_blocks, block_size=PAGE_SIZE):
        super().__init__(num_blocks, block_size)
        self.log = []

    def write(self, index, data):
        self.log.append((index, max(1, len(data) // self.block_size)))
        super().write(index, data)


def logged_device(num_blocks):
    node = World().create_node("flush")
    return BlockDevice(node.nucleus, "sd0", store=LoggingStore(num_blocks))


def fresh_device_over(device):
    """The same medium after the machine died: a new device over the
    old one's store."""
    node = World().create_node("reboot")
    return BlockDevice(node.nucleus, "sd0", store=device.store)


def build(num_blocks=40_000, inode_count=8 * PER_BLOCK, cylinder_groups=1,
          spare_inodes=0):
    """A cleanly unmounted volume whose i-node table is populated
    (``f000``.., all of it but ``spare_inodes``), so an i-node can be
    picked in any table block."""
    device = logged_device(num_blocks)
    volume = Volume.mkfs(
        device, inode_count=inode_count, cylinder_groups=cylinder_groups
    )
    root = volume.sb.root_ino
    inos = volume.create_many(
        root,
        [f"f{i:03d}" for i in range(volume.sb.inode_count - 2 - spare_inodes)],
    )
    volume.unmount()
    return device, volume, inos


class TestRegionMount:
    @pytest.mark.parametrize("groups", [1, 4])
    def test_mount_reads_each_region_once(self, groups):
        """Superblock, then each group's bitmap and i-node table slice
        as one transfer each: ``1 + 2 * groups`` device reads."""
        device, volume, inos = build(cylinder_groups=groups)
        reads = device.reads
        again = Volume.mount(device)
        assert device.reads - reads == 1 + 2 * groups
        assert again.was_clean
        assert again.fsck() == []
        assert sorted(again.readdir(again.sb.root_ino).values()) == inos


class TestFlushByRuns:
    def test_each_step_is_one_transfer_per_run(self):
        """Dirty i-nodes in table blocks {0,1}, {3} and {5,6,7}, one
        allocation (a two-block bitmap) and one dirty pointer block:
        the unmount writes one transfer per run per step, steps in
        order, the superblock last."""
        device, volume, inos = build()
        group = volume._groups[0]
        assert group.bitmap_blocks == 2 and group.inode_blocks == 8
        log = device.store.log
        del log[:]
        # The first mutation re-dirties the superblock before anything
        # else is written.  (Table block 0 is dirtied by the write below.)
        for table_block in (1, 3, 5, 6, 7):
            volume.truncate(table_block * PER_BLOCK + 1, 10)  # sparse: no I/O
        assert log == [(0, 1)]
        # One allocation out in the single-indirect range: a data block
        # and a pointer block, both in the bitmap.
        volume.write_data(inos[0], NUM_DIRECT * PAGE_SIZE, b"x" * PAGE_SIZE)
        pointer_block = volume.iget(inos[0]).indirect
        data_block = volume.bmap(volume.iget(inos[0]), NUM_DIRECT)
        assert log[1:] == [(data_block, 1)]
        del log[:]
        written = volume.unmount()
        table = group.inode_start
        assert log == [
            (group.bitmap_start, 2),
            (pointer_block, 1),
            (table, 2), (table + 3, 1), (table + 5, 3),
            (0, 1),
        ]
        # ``sync``/``unmount`` still count blocks, not transfers.
        assert written == 2 + 1 + 6 + 1
        again = Volume.mount(fresh_device_over(device))
        assert again.was_clean and again.fsck() == []
        assert again.read_data(inos[0], NUM_DIRECT * PAGE_SIZE, 4) == b"xxxx"

    def test_steps_never_coalesce_across_each_other(self):
        """In the one-group layout the bitmap (block 1) and the first
        table block (block 2) are adjacent on the device; they belong to
        different steps of the order and stay two transfers."""
        device = logged_device(2048)
        volume = Volume.mkfs(device, inode_count=64)
        f = volume.create(volume.sb.root_ino, "f", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"data")
        group = volume._groups[0]
        assert (group.bitmap_start, group.inode_start) == (1, 2)
        del device.store.log[:]
        volume.unmount()
        assert device.store.log == [(1, 1), (2, 1), (0, 1)]


class TestPowerCutAtEveryTransfer:
    """ROADMAP item 1's campaign in miniature, on the flush itself: cut
    the power after every k of the transfers one ``unmount()`` makes."""

    KEPT = (0, 70, 130, 190)  # files of the last clean state, with data

    def session(self, groups):
        """A clean state with data in it, then a session's worth of
        unflushed work: new files (the root directory is rewritten), an
        allocation under a new pointer block, data landing in several
        groups, and i-nodes dirtied in non-adjacent table blocks."""
        device, volume, inos = build(cylinder_groups=groups, spare_inodes=40)
        root = volume.sb.root_ino
        for index in self.KEPT:
            volume.write_data(inos[index], 0, self.content(index))
        volume.unmount()
        volume.create_many(root, ["new0", "new1"])
        new0 = volume.lookup(root, "new0")
        volume.write_data(new0, (NUM_DIRECT + 3) * PAGE_SIZE, b"n" * 5000)
        for index in (40, 100, 160):  # other groups' bitmaps, when there are any
            volume.write_data(inos[index], 0, b"late" * 2000)
        for index in (35, 36, 99):
            volume.truncate(inos[index], 12_345)  # metadata only
        volume.unlink(root, "f150")
        return device, volume, inos

    @staticmethod
    def content(index):
        return bytes([index]) * (2 * PAGE_SIZE + index)

    @pytest.mark.parametrize("groups", [1, 4])
    def test_every_cut_recovers(self, groups):
        device, volume, inos = self.session(groups)
        writes = device.writes
        volume.unmount()
        transfers = device.writes - writes
        # Bitmap, pointer block and table runs, then the superblock: a
        # handful, so every one of them can be the last.
        assert 4 <= transfers <= 4 + 3 * groups
        for k in range(transfers + 1):
            device, volume, inos = self.session(groups)
            device.inject_power_failure_after(k)
            if k < transfers:
                with pytest.raises(DeviceError, match="power failure"):
                    volume.unmount()
            else:
                volume.unmount()
            again = Volume.mount(fresh_device_over(device))
            assert again.was_clean == (k == transfers)
            again.fsck(repair=True)
            assert again.fsck() == [], k
            root = again.sb.root_ino
            names = again.readdir(root)
            # Everything of the last clean state is there, but for the
            # one file the session unlinked, if that reached the device.
            assert set(names) - {"new0", "new1", "f150"} == {
                f"f{i:03d}" for i in range(len(inos)) if i != 150
            }
            for index in self.KEPT:
                expected = self.content(index)
                assert again.read_data(
                    names[f"f{index:03d}"], 0, len(expected) + 1
                ) == expected, k
            # The allocator holds exactly what the i-nodes own.
            assert again.allocator.used_count == sum(
                len(list(again._walk(inode)))
                for inode in again._inodes[1:] if inode.allocated
            ), k


class TestFirstChangeAfterCleanMount:
    """The superblock goes DIRTY on the device before anything the
    session changes, also when the first change is a pointer block."""

    @staticmethod
    def remount(file_blocks):
        """A cleanly unmounted volume, remounted, with a file of
        ``file_blocks`` blocks: its i-node and pointer blocks on the
        device, nothing written since the mount."""
        device = logged_device(2048)
        volume = Volume.mkfs(device, inode_count=64)
        ino = volume.create(volume.sb.root_ino, "f", FileType.REGULAR).ino
        volume.write_data(ino, 0, b"a" * (file_blocks * PAGE_SIZE))
        volume.unmount()
        device = fresh_device_over(device)
        volume = Volume.mount(device)
        assert volume.was_clean
        del device.store.log[:]
        return device, volume, ino

    def first_write_goes_dirty_first(self, device, volume, ino, file_block):
        volume.write_data(ino, file_block * PAGE_SIZE, b"b" * PAGE_SIZE)
        data_block = volume.bmap(volume.iget(ino), file_block)
        assert device.store.log == [(0, 1), (data_block, 1)]
        assert SuperBlock.unpack(device.peek(0)).state == STATE_DIRTY
        volume.unmount()
        again = Volume.mount(fresh_device_over(device))
        assert again.fsck() == []
        assert again.read_data(ino, file_block * PAGE_SIZE, 1) == b"b"

    def test_a_new_indirect_block(self):
        """The first change is the file's single-indirect block, which
        the write allocates before it touches the i-node."""
        device, volume, ino = self.remount(NUM_DIRECT)
        assert volume.iget(ino).indirect == 0
        self.first_write_goes_dirty_first(device, volume, ino, NUM_DIRECT)

    def test_a_new_slot_of_an_existing_indirect_block(self):
        """The first change is a new pointer in a single-indirect block
        already on the device, set before the i-node's size grows."""
        device, volume, ino = self.remount(NUM_DIRECT + 1)
        assert volume.iget(ino).indirect != 0
        self.first_write_goes_dirty_first(device, volume, ino, NUM_DIRECT + 1)

    def test_a_buffered_pointer_block_alone(self):
        """Every write above also changes the i-node or a pointer right
        after it buffers a new pointer block; buffering one is itself a
        change, so a sync that writes only that block writes the
        superblock DIRTY first."""
        device, volume, ino = self.remount(1)
        block = volume.allocator.allocate()
        volume._meta_write(block, bytearray(PAGE_SIZE))
        assert device.store.log == [(0, 1)]
        volume.sync()
        assert device.store.log[-1] == (block, 1)
        assert SuperBlock.unpack(device.peek(0)).state == STATE_DIRTY


def filled_from(base):
    """A volume whose file ``f`` holds two pages and 100 bytes from
    file block ``base`` on: ``(device, volume, ino, start, size)``."""
    device = logged_device(2048)
    volume = Volume.mkfs(device, inode_count=64)
    ino = volume.create(volume.sb.root_ino, "f", FileType.REGULAR).ino
    start = base * PAGE_SIZE
    size = start + 2 * PAGE_SIZE + 100
    volume.write_data(ino, start, b"a" * (size - start))
    return device, volume, ino, start, size


class TestWriteBack:
    """``Volume.write_back``: page-padded data never extends the file.
    Each case runs with the file starting at each of ``BASES``, so that
    its pages sit under direct pointers, or cross into the single- or
    the double-indirect block."""

    BASES = (0, NUM_DIRECT - 1, NUM_DIRECT + PAGE_SIZE // 4 - 1)

    def test_at_across_and_past_eof(self):
        for base in self.BASES:
            device, volume, ino, start, size = filled_from(base)
            page = b"b" * PAGE_SIZE
            # Wholly inside the file: all of it lands.
            volume.write_back(ino, start + PAGE_SIZE, page)
            assert volume.iget(ino).size == size
            # Across EOF: the 100 bytes below the length land, the
            # padding does not.
            volume.write_back(ino, start + 2 * PAGE_SIZE, page)
            assert volume.iget(ino).size == size
            assert volume.read_data(ino, start, size + PAGE_SIZE) == (
                b"a" * PAGE_SIZE + b"b" * PAGE_SIZE + b"b" * 100
            )
            # A run of pages, the last of them across EOF.
            volume.write_back(ino, start, b"c" * (3 * PAGE_SIZE))
            assert volume.iget(ino).size == size
            assert volume.read_data(ino, start, size + 1) == b"c" * (size - start)
            assert volume.fsck() == []

    def test_nothing_below_the_length_writes_nothing(self):
        for base in self.BASES:
            device, volume, ino, start, size = filled_from(base)
            volume.truncate(ino, start + 2 * PAGE_SIZE)
            writes, blocks = device.writes, volume.allocator.used_count
            page = b"d" * PAGE_SIZE
            volume.write_back(ino, start + 2 * PAGE_SIZE, page)  # the tail is zero bytes long
            volume.write_back(ino, start + 5 * PAGE_SIZE, page)  # wholly past EOF
            volume.write_back(ino, start + PAGE_SIZE, b"")
            assert device.writes == writes
            assert volume.allocator.used_count == blocks
            assert volume.iget(ino).size == start + 2 * PAGE_SIZE
