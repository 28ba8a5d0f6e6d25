"""The volume's ordered flush and region mount, transfer by transfer:
every metadata region moves as a run (docs/ONDISK.md sec. 5)."""

import pytest

from repro.storage import BlockDevice, FileType, MemoryBlockStore, Volume
from repro.storage.inode import INODE_SIZE, NUM_DIRECT
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


def build(num_blocks=40_000, inode_count=8 * PER_BLOCK, cylinder_groups=1):
    """A cleanly unmounted volume whose i-node table is fully populated
    (``f000``..), so an i-node can be picked in any table block."""
    device = logged_device(num_blocks)
    volume = Volume.mkfs(
        device, inode_count=inode_count, cylinder_groups=cylinder_groups
    )
    root = volume.sb.root_ino
    inos = volume.create_many(
        root, [f"f{i:03d}" for i in range(volume.sb.inode_count - 2)]
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
