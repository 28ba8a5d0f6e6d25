"""Unit tests for the UFS-like volume engine: files, directories,
indirect blocks, persistence, and fsck."""

import pytest

from repro.errors import (
    DirectoryNotEmptyError,
    FileExistsError_,
    FileNotFoundError_,
    IsADirectoryError_,
    NoSpaceError,
    NotADirectoryError_,
    OutOfRangeError,
)
from repro.storage.inode import NUM_DIRECT, FileType
from repro.storage.volume import Volume
from repro.types import PAGE_SIZE


@pytest.fixture
def root(volume):
    return volume.sb.root_ino


class TestFileData:
    def test_empty_file(self, volume, root):
        f = volume.create(root, "empty", FileType.REGULAR)
        assert volume.iget(f.ino).size == 0
        assert volume.read_data(f.ino, 0, 100) == b""

    def test_small_write_read(self, volume, root):
        f = volume.create(root, "small", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"hello")
        assert volume.read_data(f.ino, 0, 5) == b"hello"

    def test_read_past_eof_clamped(self, volume, root):
        f = volume.create(root, "f", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"12345")
        assert volume.read_data(f.ino, 3, 100) == b"45"
        assert volume.read_data(f.ino, 10, 5) == b""

    def test_overwrite_middle(self, volume, root):
        f = volume.create(root, "f", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"a" * 100)
        volume.write_data(f.ino, 40, b"MIDDLE")
        data = volume.read_data(f.ino, 0, 100)
        assert data[40:46] == b"MIDDLE"
        assert data[:40] == b"a" * 40
        assert volume.iget(f.ino).size == 100

    def test_sparse_hole_reads_zero(self, volume, root):
        f = volume.create(root, "sparse", FileType.REGULAR)
        volume.write_data(f.ino, 10 * PAGE_SIZE, b"tail")
        assert volume.read_data(f.ino, 0, 10) == bytes(10)
        assert volume.read_data(f.ino, 10 * PAGE_SIZE, 4) == b"tail"
        # The hole consumed no data blocks.
        mapped = volume._mapped_blocks(volume.iget(f.ino))
        assert len(mapped) == 1

    def test_cross_block_write(self, volume, root):
        f = volume.create(root, "f", FileType.REGULAR)
        blob = bytes(range(256)) * ((3 * PAGE_SIZE) // 256)
        volume.write_data(f.ino, PAGE_SIZE // 2, blob)
        assert volume.read_data(f.ino, PAGE_SIZE // 2, len(blob)) == blob

    def test_indirect_blocks(self, volume, root):
        """Write past the direct pointers into single-indirect range."""
        f = volume.create(root, "big", FileType.REGULAR)
        offset = (NUM_DIRECT + 3) * PAGE_SIZE
        volume.write_data(f.ino, offset, b"indirect!")
        assert volume.read_data(f.ino, offset, 9) == b"indirect!"
        assert volume.iget(f.ino).indirect != 0
        assert volume.fsck() == []

    def test_double_indirect_blocks(self, volume, root):
        f = volume.create(root, "huge", FileType.REGULAR)
        ppb = PAGE_SIZE // 4
        offset = (NUM_DIRECT + ppb + 5) * PAGE_SIZE
        volume.write_data(f.ino, offset, b"dbl")
        assert volume.read_data(f.ino, offset, 3) == b"dbl"
        assert volume.iget(f.ino).dbl_indirect != 0
        assert volume.fsck() == []

    def test_truncate_shrinks_and_frees(self, volume, root):
        f = volume.create(root, "f", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"x" * (5 * PAGE_SIZE))
        used_before = volume.allocator.used_count
        volume.truncate(f.ino, PAGE_SIZE)
        assert volume.iget(f.ino).size == PAGE_SIZE
        assert volume.allocator.used_count < used_before
        assert volume.read_data(f.ino, 0, 10) == b"x" * 10
        assert volume.fsck() == []

    def test_truncate_extend_is_sparse(self, volume, root):
        f = volume.create(root, "f", FileType.REGULAR)
        volume.truncate(f.ino, 3 * PAGE_SIZE)
        assert volume.iget(f.ino).size == 3 * PAGE_SIZE
        assert volume.read_data(f.ino, 0, 16) == bytes(16)
        assert volume._mapped_blocks(volume.iget(f.ino)) == []

    def test_negative_length_and_offset_refused(self, volume, root):
        """A size the i-node cannot pack never reaches it, and a write
        before offset 0 does not land its tail at the start."""
        f = volume.create(root, "f", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"0123456789")
        with pytest.raises(OutOfRangeError):
            volume.truncate(f.ino, -1)
        with pytest.raises(OutOfRangeError):
            volume.write_data(f.ino, -3, b"ZZZZZZ")
        assert volume.read_data(f.ino, 0, 100) == b"0123456789"
        volume.sync()
        assert volume.fsck() == []

    def test_timestamps_progress(self, volume, root, world):
        f = volume.create(root, "f", FileType.REGULAR)
        world.clock.advance(1000)
        volume.write_data(f.ino, 0, b"data")
        inode = volume.iget(f.ino)
        assert inode.mtime_us >= f.ctime_us
        world.clock.advance(1000)
        volume.read_data(f.ino, 0, 4)
        assert volume.iget(f.ino).atime_us > inode.mtime_us


class TestDirectories:
    def test_create_and_lookup(self, volume, root):
        f = volume.create(root, "file.txt", FileType.REGULAR)
        assert volume.lookup(root, "file.txt") == f.ino

    def test_lookup_missing(self, volume, root):
        with pytest.raises(FileNotFoundError_):
            volume.lookup(root, "nothing")

    def test_duplicate_create_rejected(self, volume, root):
        volume.create(root, "x", FileType.REGULAR)
        with pytest.raises(FileExistsError_):
            volume.create(root, "x", FileType.REGULAR)

    def test_nested_directories(self, volume, root):
        d1 = volume.create(root, "d1", FileType.DIRECTORY)
        d2 = volume.create(d1.ino, "d2", FileType.DIRECTORY)
        f = volume.create(d2.ino, "deep.txt", FileType.REGULAR)
        assert volume.lookup(volume.lookup(volume.lookup(
            root, "d1"), "d2"), "deep.txt") == f.ino

    def test_readdir(self, volume, root):
        volume.create(root, "a", FileType.REGULAR)
        volume.create(root, "b", FileType.DIRECTORY)
        assert set(volume.readdir(root)) == {"a", "b"}

    def test_readdir_on_file_rejected(self, volume, root):
        f = volume.create(root, "f", FileType.REGULAR)
        with pytest.raises(NotADirectoryError_):
            volume.readdir(f.ino)

    def test_unlink_frees_inode_and_blocks(self, volume, root):
        f = volume.create(root, "f", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"x" * PAGE_SIZE * 3)
        used = volume.allocator.used_count
        volume.unlink(root, "f")
        assert volume.allocator.used_count < used
        with pytest.raises(FileNotFoundError_):
            volume.lookup(root, "f")
        with pytest.raises(FileNotFoundError_):
            volume.iget(f.ino)

    def test_unlink_nonempty_dir_rejected(self, volume, root):
        d = volume.create(root, "d", FileType.DIRECTORY)
        volume.create(d.ino, "child", FileType.REGULAR)
        with pytest.raises(DirectoryNotEmptyError):
            volume.unlink(root, "d")

    def test_unlink_empty_dir(self, volume, root):
        volume.create(root, "d", FileType.DIRECTORY)
        volume.unlink(root, "d")
        assert "d" not in volume.readdir(root)

    def test_rename_same_dir(self, volume, root):
        f = volume.create(root, "old", FileType.REGULAR)
        volume.rename(root, "old", root, "new")
        assert volume.lookup(root, "new") == f.ino
        with pytest.raises(FileNotFoundError_):
            volume.lookup(root, "old")

    def test_rename_across_dirs(self, volume, root):
        d = volume.create(root, "d", FileType.DIRECTORY)
        f = volume.create(root, "f", FileType.REGULAR)
        volume.rename(root, "f", d.ino, "moved")
        assert volume.lookup(d.ino, "moved") == f.ino

    def test_rename_onto_existing_rejected(self, volume, root):
        volume.create(root, "a", FileType.REGULAR)
        volume.create(root, "b", FileType.REGULAR)
        with pytest.raises(FileExistsError_):
            volume.rename(root, "a", root, "b")


class TestHardLinks:
    def test_link_shares_inode(self, volume, root):
        f = volume.create(root, "orig", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"shared")
        volume.link(root, "alias", f.ino)
        assert volume.lookup(root, "alias") == f.ino
        assert volume.iget(f.ino).nlink == 2
        assert volume.fsck() == []

    def test_unlink_one_name_keeps_data(self, volume, root):
        f = volume.create(root, "orig", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"keep me")
        volume.link(root, "alias", f.ino)
        volume.unlink(root, "orig")
        assert volume.read_data(f.ino, 0, 7) == b"keep me"
        assert volume.iget(f.ino).nlink == 1

    def test_unlink_last_name_frees(self, volume, root):
        f = volume.create(root, "orig", FileType.REGULAR)
        volume.link(root, "alias", f.ino)
        volume.unlink(root, "orig")
        volume.unlink(root, "alias")
        with pytest.raises(FileNotFoundError_):
            volume.iget(f.ino)

    def test_link_to_directory_rejected(self, volume, root):
        d = volume.create(root, "d", FileType.DIRECTORY)
        with pytest.raises(IsADirectoryError_):
            volume.link(root, "dlink", d.ino)


class TestPersistence:
    def test_mount_sees_synced_state(self, ram_device):
        volume = Volume.mkfs(ram_device)
        root = volume.sb.root_ino
        f = volume.create(root, "persist.txt", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"durable" * 100)
        volume.unmount()
        again = Volume.mount(ram_device)
        assert again.was_clean
        ino = again.lookup(again.sb.root_ino, "persist.txt")
        assert again.read_data(ino, 0, 7) == b"durable"
        assert again.fsck() == []

    def test_mount_preserves_allocator(self, ram_device):
        volume = Volume.mkfs(ram_device)
        f = volume.create(volume.sb.root_ino, "f", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"x" * PAGE_SIZE * 4)
        volume.sync()
        again = Volume.mount(ram_device)
        assert again.allocator.used_count == volume.allocator.used_count

    def test_unformatted_mount_rejected(self, node):
        from repro.errors import StorageError
        from repro.storage.block_device import RamDevice

        blank = RamDevice(node.nucleus, "blank", 64)
        with pytest.raises(StorageError):
            Volume.mount(blank)

    def test_sync_idempotent(self, volume, root):
        volume.create(root, "f", FileType.REGULAR)
        first = volume.sync()
        assert first > 0
        assert volume.sync() == 0


class TestResourceExhaustion:
    def test_out_of_data_blocks(self, node):
        from repro.storage.block_device import RamDevice

        small = RamDevice(node.nucleus, "tiny", 48)
        volume = Volume.mkfs(small, inode_count=32)
        f = volume.create(volume.sb.root_ino, "f", FileType.REGULAR)
        with pytest.raises(NoSpaceError):
            volume.write_data(f.ino, 0, b"x" * (64 * PAGE_SIZE))

    def test_out_of_inodes(self, node):
        from repro.storage.block_device import RamDevice

        small = RamDevice(node.nucleus, "tiny2", 256)
        volume = Volume.mkfs(small, inode_count=8)
        root = volume.sb.root_ino
        with pytest.raises(NoSpaceError):
            for i in range(20):
                volume.create(root, f"f{i}", FileType.REGULAR)


class TestFsck:
    def test_clean_volume(self, volume, root):
        for i in range(5):
            f = volume.create(root, f"f{i}", FileType.REGULAR)
            volume.write_data(f.ino, 0, b"d" * (i * 1000))
        assert volume.fsck() == []

    def test_detects_nlink_mismatch(self, volume, root):
        f = volume.create(root, "f", FileType.REGULAR)
        volume.iget(f.ino).nlink = 5
        problems = volume.fsck()
        assert any("nlink" in p for p in problems)

    def test_detects_unallocated_block_claim(self, volume, root):
        f = volume.create(root, "f", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"data")
        claimed = volume.iget(f.ino).direct[0]
        volume.allocator.free(claimed)
        problems = volume.fsck()
        assert any("not marked allocated" in p for p in problems)

    def test_detects_double_claim(self, volume, root):
        f1 = volume.create(root, "f1", FileType.REGULAR)
        f2 = volume.create(root, "f2", FileType.REGULAR)
        volume.write_data(f1.ino, 0, b"one")
        volume.write_data(f2.ino, 0, b"two")
        volume.iget(f2.ino).direct[0] = volume.iget(f1.ino).direct[0]
        problems = volume.fsck()
        assert any("claimed by" in p for p in problems)

    def test_detects_dangling_entry(self, volume, root):
        f = volume.create(root, "f", FileType.REGULAR)
        # Corrupt: free the i-node behind the directory's back.
        volume._inodes[f.ino].type = FileType.FREE
        problems = volume.fsck()
        assert any("dangling" in p.lower() for p in problems)


def _tree(volume):
    """Directory ``d`` and two files, ``a`` in the root and ``d/f`` of
    5 000 bytes; returns d's i-node and ``{(parent, name): (ino, bytes)}``."""
    root = volume.sb.root_ino
    d = volume.create(root, "d", FileType.DIRECTORY).ino
    files = {}
    for parent, name, size in ((root, "a", 3000), (d, "f", 5000)):
        data = name.encode() * size
        ino = volume.create(parent, name, FileType.REGULAR).ino
        volume.write_data(ino, 0, data)
        files[(parent, name)] = (ino, data)
    return d, files


def _assert_files_read_back(volume, files):
    for (parent, name), (ino, data) in files.items():
        assert volume.lookup(parent, name) == ino
        assert volume.read_data(ino, 0, len(data) + 1) == data


class TestFsckRepairsTheDirectoryTree:
    @pytest.mark.parametrize("name, names_root", [("up", True), ("self", False)])
    def test_a_directory_cycle_is_pruned(self, ram_device, name, names_root):
        volume = Volume.mkfs(ram_device)
        root = volume.sb.root_ino
        d, files = _tree(volume)
        entries = volume.readdir(d)
        entries[name] = root if names_root else d
        volume._write_dir(d, entries)
        volume.unmount()
        volume = Volume.mount(ram_device)
        nlinks = {inode.ino: inode.nlink for inode in volume._inodes if inode.allocated}

        problems = volume.fsck(repair=True)
        assert any("directory cycle" in p for p in problems)
        assert volume.fsck() == []
        assert name not in volume.readdir(d)
        assert {
            inode.ino: inode.nlink for inode in volume._inodes if inode.allocated
        } == nlinks
        _assert_files_read_back(volume, files)

    def test_an_unreadable_directory_loses_no_file(self, ram_device):
        volume = Volume.mkfs(ram_device)
        root = volume.sb.root_ino
        d, files = _tree(volume)
        ((_, block),) = volume._mapped_blocks(volume.iget(d))
        volume.unmount()
        ram_device.inject_bad_block(block)
        volume = Volume.mount(ram_device)

        problems = volume.fsck(repair=True)
        assert any("unreadable directory" in p for p in problems)
        assert volume.fsck() == []
        assert volume.readdir(d) == {}
        ino, data = files.pop((d, "f"))
        lost_found = volume.lookup(root, "lost+found")
        assert volume.readdir(lost_found) == {f"#{ino}": ino}
        files[(lost_found, f"#{ino}")] = (ino, data)
        _assert_files_read_back(volume, files)
