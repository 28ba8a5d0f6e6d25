"""Unit tests for on-disk structures: superblock, i-nodes, directory
entries, and the block allocator."""

import pytest

from repro.errors import InvalidNameError, NoSpaceError, StorageError
from repro.storage.allocator import BlockAllocator
from repro.storage.directory import pack_entries, unpack_entries
from repro.storage.inode import (
    INODE_SIZE,
    NUM_DIRECT,
    FileType,
    Inode,
    max_file_blocks,
)
from repro.storage.layout import SuperBlock
from repro.types import PAGE_SIZE


class TestSuperBlock:
    def test_pack_unpack_roundtrip(self):
        sb = SuperBlock.compute(PAGE_SIZE, 8192, 1024)
        again = SuperBlock.unpack(sb.pack())
        assert again == sb

    def test_bad_magic_rejected(self):
        with pytest.raises(StorageError):
            SuperBlock.unpack(bytes(64))

    def test_layout_regions_disjoint_and_ordered(self):
        sb = SuperBlock.compute(PAGE_SIZE, 8192, 1024)
        assert 0 < sb.bitmap_start < sb.inode_table_start < sb.data_start
        assert sb.bitmap_start + sb.bitmap_blocks == sb.inode_table_start
        assert sb.inode_table_start + sb.inode_table_blocks == sb.data_start

    def test_bitmap_covers_device(self):
        sb = SuperBlock.compute(PAGE_SIZE, 100_000, 1024)
        assert sb.bitmap_blocks * PAGE_SIZE * 8 >= 100_000

    def test_inode_table_sized_for_count(self):
        sb = SuperBlock.compute(PAGE_SIZE, 8192, 1000)
        per_block = PAGE_SIZE // INODE_SIZE
        assert sb.inode_table_blocks == (1000 + per_block - 1) // per_block

    def test_too_small_device_rejected(self):
        with pytest.raises(StorageError):
            SuperBlock.compute(PAGE_SIZE, 4, 1024)

    def test_block_smaller_than_an_inode_rejected(self):
        with pytest.raises(StorageError, match="holds no i-node"):
            SuperBlock.compute(INODE_SIZE // 2, 8192, 1024)

    def test_fewer_than_two_inodes_rejected(self):
        with pytest.raises(StorageError, match="the root"):
            SuperBlock.compute(PAGE_SIZE, 8192, 1)


class TestInode:
    def test_record_size(self):
        inode = Inode(ino=1, type=FileType.REGULAR)
        assert len(inode.pack()) == INODE_SIZE

    def test_roundtrip_all_fields(self):
        inode = Inode(
            ino=7,
            type=FileType.DIRECTORY,
            nlink=3,
            size=123456,
            atime_us=111,
            mtime_us=222,
            ctime_us=333,
            direct=list(range(100, 100 + NUM_DIRECT)),
            indirect=999,
            dbl_indirect=1000,
        )
        again = Inode.unpack(7, inode.pack())
        assert again == inode

    def test_free_inode_roundtrip(self):
        assert not Inode.unpack(3, Inode(ino=3).pack()).allocated

    def test_corrupt_direct_array_rejected(self):
        inode = Inode(ino=1, type=FileType.REGULAR)
        inode.direct = [0] * 3
        with pytest.raises(StorageError):
            inode.pack()

    def test_max_file_blocks_geometry(self):
        ppb = PAGE_SIZE // 4
        assert max_file_blocks(PAGE_SIZE) == NUM_DIRECT + ppb + ppb * ppb


class TestDirectoryFormat:
    def test_empty(self):
        assert unpack_entries(pack_entries({})) == {}
        assert unpack_entries(b"") == {}

    def test_roundtrip(self):
        entries = {"alpha": 2, "beta": 17, "a-very-long-name.txt": 300}
        assert unpack_entries(pack_entries(entries)) == entries

    def test_unicode_names(self):
        entries = {"ünïcødé": 5}
        assert unpack_entries(pack_entries(entries)) == entries

    def test_trailing_zeros_ignored(self):
        packed = pack_entries({"x": 1}) + bytes(100)
        assert unpack_entries(packed) == {"x": 1}

    def test_ino_zero_rejected(self):
        with pytest.raises(StorageError):
            pack_entries({"x": 0})

    def test_name_too_long_rejected(self):
        with pytest.raises(StorageError):
            pack_entries({"x" * 300: 1})

    def test_truncated_entry_detected(self):
        packed = pack_entries({"filename": 1})
        with pytest.raises(StorageError):
            unpack_entries(packed[:-3])

    def test_deterministic_order(self):
        a = pack_entries({"b": 2, "a": 1})
        b = pack_entries({"a": 1, "b": 2})
        assert a == b


class TestBlockAllocator:
    def test_allocates_from_data_region(self):
        allocator = BlockAllocator(100, data_start=10)
        block = allocator.allocate()
        assert 10 <= block < 100

    def test_no_double_allocation(self):
        allocator = BlockAllocator(100, data_start=10)
        blocks = [allocator.allocate() for _ in range(90)]
        assert len(set(blocks)) == 90

    def test_exhaustion(self):
        allocator = BlockAllocator(12, data_start=10)
        allocator.allocate()
        allocator.allocate()
        with pytest.raises(NoSpaceError):
            allocator.allocate()

    def test_free_enables_reuse(self):
        allocator = BlockAllocator(12, data_start=10)
        a = allocator.allocate()
        b = allocator.allocate()
        allocator.free(a)
        c = allocator.allocate()
        assert c == a

    def test_double_free_detected(self):
        allocator = BlockAllocator(100, data_start=10)
        block = allocator.allocate()
        allocator.free(block)
        with pytest.raises(StorageError):
            allocator.free(block)

    def test_free_of_metadata_block_rejected(self):
        allocator = BlockAllocator(100, data_start=10)
        with pytest.raises(StorageError):
            allocator.free(5)

    def test_counts(self):
        allocator = BlockAllocator(100, data_start=10)
        assert allocator.free_count == 90
        allocator.allocate()
        assert (allocator.used_count, allocator.free_count) == (1, 89)

    def test_bitmap_roundtrip(self):
        allocator = BlockAllocator(100, data_start=10)
        blocks = {allocator.allocate() for _ in range(25)}
        blob = allocator.group_bitmap(0, PAGE_SIZE)
        assert len(blob) == 1  # 100 blocks: one bitmap block
        again = BlockAllocator.from_group_bitmaps(
            100, 10, [(0, 10, 100)], [b"".join(blob)]
        )
        assert {b for b in range(10, 100) if again.is_allocated(b)} == blocks
        assert (again.used_count, again.free_count) == (25, 65)

    def test_bitmap_marks_metadata_used(self):
        allocator = BlockAllocator(100, data_start=10)
        blob = allocator.group_bitmap(0, PAGE_SIZE)[0]
        for index in range(10):
            assert blob[index // 8] & (1 << (index % 8))

    def test_dirty_tracking(self):
        allocator = BlockAllocator(100, data_start=10)
        assert not allocator.dirty
        block = allocator.allocate()
        assert allocator.dirty
        allocator.mark_clean()
        allocator.free(block)
        assert allocator.dirty
