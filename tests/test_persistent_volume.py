"""Persistent volumes: image-backed block stores, clean/dirty unmount
lifecycle, crash-mid-flush recovery, and cylinder-group geometry."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeviceError, StorageError
from repro.fs import NullFs, create_sfs
from repro.ipc.domain import Credentials
from repro.storage import (
    STATE_CLEAN,
    BlockDevice,
    FileType,
    ImageBlockStore,
    MemoryBlockStore,
    SuperBlock,
    Volume,
)
from repro.storage.blockstore import IMAGE_MAGIC, IMAGE_VERSION
from repro.storage.inode import NUM_DIRECT
from repro.unix.posixlike import O_CREAT, O_RDWR, Posix
from repro.world import World

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def image_device(path, num_blocks=2048, fresh=True):
    world = World()
    node = world.create_node("n")
    if fresh:
        return world.create_image(node.nucleus, str(path), num_blocks)
    return world.open_image(node.nucleus, str(path))


class TestImageBlockStore:
    def test_create_and_reopen_geometry(self, tmp_path):
        path = str(tmp_path / "geo.img")
        store = ImageBlockStore.create(path, num_blocks=64, block_size=512)
        store.write(3, b"x" * 512)
        store.close()
        again = ImageBlockStore.open(path)
        assert again.num_blocks == 64
        assert again.block_size == 512
        assert again.persistent
        assert again.read(3) == b"x" * 512
        again.close()

    def test_unwritten_blocks_read_zero(self, tmp_path):
        store = ImageBlockStore.create(str(tmp_path / "z.img"), 16, 512)
        assert store.read(7) == bytes(512)
        assert store.read(0, 4) == bytes(4 * 512)
        store.close()

    def test_sparse_on_disk(self, tmp_path):
        path = str(tmp_path / "sparse.img")
        store = ImageBlockStore.create(path, num_blocks=100_000, block_size=4096)
        store.write(99_999, b"end" + bytes(4093))
        store.close()
        # Logical size is the full array; allocated size is tiny.
        assert os.path.getsize(path) >= 100_000 * 4096
        assert os.stat(path).st_blocks * 512 < 1_000_000

    def test_rejects_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.img")
        with open(path, "wb") as fh:
            fh.write(b"NOTANIMG" + bytes(4096))
        with pytest.raises(DeviceError, match="magic"):
            ImageBlockStore.open(path)

    def test_rejects_truncated_image(self, tmp_path):
        path = str(tmp_path / "short.img")
        store = ImageBlockStore.create(path, num_blocks=64, block_size=512)
        store.close()
        with open(path, "r+b") as fh:
            fh.truncate(4096 + 10 * 512)
        with pytest.raises(DeviceError, match="short"):
            ImageBlockStore.open(path)

    def test_closed_store_raises(self, tmp_path):
        store = ImageBlockStore.create(str(tmp_path / "c.img"), 16, 512)
        store.close()
        with pytest.raises(DeviceError, match="closed"):
            store.read(0)
        with pytest.raises(DeviceError, match="closed"):
            store.write(0, bytes(512))

    def test_rejects_a_missing_path(self, tmp_path):
        with pytest.raises(DeviceError, match="cannot open"):
            ImageBlockStore.open(str(tmp_path / "absent.img"))

    def test_rejects_a_short_header(self, tmp_path):
        path = str(tmp_path / "stub.img")
        with open(path, "wb") as fh:
            fh.write(IMAGE_MAGIC)
        with pytest.raises(DeviceError, match="no header"):
            ImageBlockStore.open(path)

    def test_rejects_a_newer_format_version(self, tmp_path):
        path = str(tmp_path / "new.img")
        ImageBlockStore.create(path, 16, 512).close()
        with open(path, "r+b") as fh:
            fh.seek(len(IMAGE_MAGIC))
            fh.write((IMAGE_VERSION + 1).to_bytes(4, "little"))
        with pytest.raises(DeviceError, match="newer"):
            ImageBlockStore.open(path)

    @pytest.mark.parametrize("num_blocks, block_size", [(0, 512), (16, 0), (-1, 512)])
    def test_rejects_a_non_positive_geometry(self, tmp_path, num_blocks, block_size):
        path = tmp_path / "none.img"
        with pytest.raises(DeviceError, match="positive"):
            ImageBlockStore.create(str(path), num_blocks, block_size)
        assert not path.exists()

    def test_a_written_block_is_in_the_file_before_any_flush(self, tmp_path):
        # Blocks go to the image by os.pwrite, not through a userspace
        # buffer: a second opening sees them without flush or close.
        path = str(tmp_path / "shared.img")
        store = ImageBlockStore.create(path, 16, 512)
        store.write(2, memoryview(bytearray(b"w" * 1024)))
        other = ImageBlockStore.open(path)
        assert other.read(2, 2) == b"w" * 1024
        other.close()
        store.close()

    def test_a_short_pwrite_raises(self, tmp_path, monkeypatch):
        store = ImageBlockStore.create(str(tmp_path / "full.img"), 16, 512)
        monkeypatch.setattr(os, "pwrite", lambda fd, data, at: len(data) - 1)
        with pytest.raises(DeviceError, match="short write"):
            store.write(1, b"s" * 512)
        monkeypatch.undo()
        store.close()

    def test_memoryview_write_lands(self, tmp_path):
        """Zero-copy discipline: a memoryview rides straight into the file."""
        store = ImageBlockStore.create(str(tmp_path / "mv.img"), 16, 512)
        buf = bytearray(b"v" * 512)
        store.write(5, memoryview(buf))
        assert store.read(5) == b"v" * 512
        store.close()

    def test_device_adopts_store_geometry(self, tmp_path):
        store = ImageBlockStore.create(str(tmp_path / "a.img"), 32, 1024)
        world = World()
        node = world.create_node("n")
        dev = BlockDevice(node.nucleus, "img", store=store)
        assert dev.num_blocks == 32
        assert dev.block_size == 1024
        dev.close()


class TestVolumeLifecycle:
    def test_unmount_marks_clean_remount_sees_it(self, tmp_path):
        dev = image_device(tmp_path / "v.img")
        vol = Volume.mkfs(dev, inode_count=64)
        f = vol.create(vol.sb.root_ino, "f", FileType.REGULAR)
        vol.write_data(f.ino, 0, b"data" * 100)
        vol.unmount()
        sb = SuperBlock.unpack(dev.peek(0))
        assert sb.state == STATE_CLEAN
        dev.close()

        dev2 = image_device(tmp_path / "v.img", fresh=False)
        vol2 = Volume.mount(dev2)
        assert vol2.was_clean
        assert vol2.fsck() == []
        ino = vol2.lookup(vol2.sb.root_ino, "f")
        assert vol2.read_data(ino, 0, 4) == b"data"
        dev2.close()

    def test_mutation_after_unmount_redirties(self, tmp_path):
        dev = image_device(tmp_path / "v.img")
        vol = Volume.mkfs(dev, inode_count=64)
        vol.unmount()
        assert SuperBlock.unpack(dev.peek(0)).state == STATE_CLEAN
        vol.create(vol.sb.root_ino, "late", FileType.REGULAR)
        # The first mutation wrote the superblock DIRTY before anything else.
        assert SuperBlock.unpack(dev.peek(0)).state != STATE_CLEAN
        vol.unmount()
        assert SuperBlock.unpack(dev.peek(0)).state == STATE_CLEAN
        dev.close()

    def test_mount_refuses_blocks_too_short_for_a_superblock(self, tmp_path):
        ImageBlockStore.create(str(tmp_path / "v.img"), 64, 3).close()
        dev = image_device(tmp_path / "v.img", fresh=False)
        with pytest.raises(StorageError, match="superblock needs 64 bytes"):
            Volume.mount(dev)
        dev.close()

    def test_unmount_idempotent(self, tmp_path):
        dev = image_device(tmp_path / "v.img")
        vol = Volume.mkfs(dev, inode_count=64)
        first = vol.unmount()
        assert first > 0
        assert vol.unmount() == 0
        dev.close()

    def test_skipping_unmount_reports_dirty(self, tmp_path):
        dev = image_device(tmp_path / "v.img")
        vol = Volume.mkfs(dev, inode_count=64)
        vol.create(vol.sb.root_ino, "f", FileType.REGULAR)
        vol.sync()
        dev.flush()
        dev.close()
        dev2 = image_device(tmp_path / "v.img", fresh=False)
        vol2 = Volume.mount(dev2)
        assert not vol2.was_clean
        problems = vol2.fsck()
        assert any("superblock" in p and "dirty" in p for p in problems)
        dev2.close()


def apply_ops(volume, ops):
    """Drive a volume through an op sequence, mirroring into an oracle
    {name: contents} dict (flat namespace under the root)."""
    root = volume.sb.root_ino
    oracle = {}
    for kind, name, payload in ops:
        if kind == "create":
            if name in oracle:
                continue
            inode = volume.create(root, name, FileType.REGULAR)
            if payload:
                volume.write_data(inode.ino, 0, payload)
            oracle[name] = payload
        elif kind == "write":
            if name not in oracle:
                continue
            ino = volume.lookup(root, name)
            volume.write_data(ino, 0, payload)
            old = oracle[name]
            oracle[name] = payload + old[len(payload):]
        elif kind == "unlink":
            if name not in oracle:
                continue
            volume.unlink(root, name)
            del oracle[name]
        elif kind == "truncate":
            if name not in oracle:
                continue
            length = len(payload)
            volume.truncate(volume.lookup(root, name), length)
            old = oracle[name]
            oracle[name] = old[:length] + bytes(max(0, length - len(old)))
    return oracle


op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["create", "write", "unlink", "truncate"]),
        st.sampled_from(["a", "b", "c", "d", "e"]),
        st.binary(min_size=0, max_size=6000),
    ),
    max_size=30,
)


class TestRoundTripProperty:
    @given(ops=op_strategy)
    @settings(max_examples=25, deadline=None)
    def test_image_roundtrip(self, ops, tmp_path_factory):
        """Any op sequence, unmounted to an image and remounted by a
        fresh World, yields the identical tree and a clean fsck."""
        path = str(tmp_path_factory.mktemp("rt") / "rt.img")
        dev = image_device(path, num_blocks=4096)
        vol = Volume.mkfs(dev, inode_count=128)
        oracle = apply_ops(vol, ops)
        vol.unmount()
        dev.close()

        dev2 = image_device(path, fresh=False)
        vol2 = Volume.mount(dev2)
        assert vol2.was_clean
        assert vol2.fsck() == []
        root = vol2.sb.root_ino
        assert set(vol2.readdir(root)) == set(oracle)
        for name, data in oracle.items():
            ino = vol2.lookup(root, name)
            assert vol2.read_data(ino, 0, len(data) + 16) == data
        dev2.close()
        os.unlink(path)


class TestCrashMidFlush:
    def _build_and_crash(self, path, fail_after):
        dev = image_device(path, num_blocks=2048)
        vol = Volume.mkfs(dev, inode_count=128)
        root = vol.sb.root_ino
        f = vol.create(root, "keep", FileType.REGULAR)
        vol.write_data(f.ino, 0, b"k" * 5000)
        vol.unmount()
        # New work whose flush will be torn.
        g = vol.create(root, "torn", FileType.REGULAR)
        vol.write_data(g.ino, 0, b"t" * 9000)
        dev.inject_power_failure_after(fail_after)
        with pytest.raises(DeviceError, match="power failure"):
            vol.unmount()
        dev.close()  # the medium survives; the machine died

    def test_detects_dirty_and_repairs_leaks(self, tmp_path):
        path = str(tmp_path / "crash.img")
        # One write survives: the bitmap lands, i-nodes do not -> the
        # new file's blocks are allocated-but-unreferenced (leaked) and
        # the rewritten root directory's old block is a lost claim.
        self._build_and_crash(path, fail_after=1)
        dev = image_device(path, fresh=False)
        vol = Volume.mount(dev)
        assert not vol.was_clean
        problems = vol.fsck()
        assert any("superblock" in p for p in problems)
        assert any("leaked" in p for p in problems)
        vol.fsck(repair=True)
        assert vol.fsck() == []
        # Pre-crash state is intact.
        ino = vol.lookup(vol.sb.root_ino, "keep")
        assert vol.read_data(ino, 0, 5000) == b"k" * 5000
        assert "torn" not in vol.readdir(vol.sb.root_ino)
        # Repaired state survives its own unmount/remount.
        vol.unmount()
        dev.close()
        dev2 = image_device(path, fresh=False)
        vol2 = Volume.mount(dev2)
        assert vol2.was_clean
        assert vol2.fsck() == []
        dev2.close()

    def test_crash_after_metadata_only_dirty_flag(self, tmp_path):
        path = str(tmp_path / "late.img")
        # Everything except the final CLEAN superblock write lands: the
        # only problem is the dirty flag itself.
        self._build_and_crash(path, fail_after=2)
        dev = image_device(path, fresh=False)
        vol = Volume.mount(dev)
        assert not vol.was_clean
        problems = vol.fsck()
        assert problems == ["superblock: volume was not cleanly unmounted (dirty)"]
        vol.fsck(repair=True)
        assert vol.fsck() == []
        ino = vol.lookup(vol.sb.root_ino, "torn")
        assert vol.read_data(ino, 0, 9000) == b"t" * 9000
        dev.close()

    def test_fsck_repairs_double_claim(self, tmp_path):
        dev = image_device(tmp_path / "dc.img")
        vol = Volume.mkfs(dev, inode_count=64)
        root = vol.sb.root_ino
        f1 = vol.create(root, "f1", FileType.REGULAR)
        f2 = vol.create(root, "f2", FileType.REGULAR)
        vol.write_data(f1.ino, 0, b"one!" * 100)
        vol.write_data(f2.ino, 0, b"two!" * 100)
        stolen = vol.iget(f1.ino).direct[0]
        orphaned = vol.iget(f2.ino).direct[0]
        vol.iget(f2.ino).direct[0] = stolen
        problems = vol.fsck()
        assert any("claimed by" in p for p in problems)
        vol.fsck(repair=True)
        assert vol.fsck() == []
        # Both files read their own (duplicated) bytes.
        assert vol.read_data(f1.ino, 0, 4) == b"one!"
        assert vol.read_data(f2.ino, 0, 4) == b"one!"  # copied contested block
        assert vol.iget(f2.ino).direct[0] != stolen
        # The orphaned original block went back to the free pool.
        assert not vol.allocator.is_allocated(orphaned)
        dev.close()


class TestStackPersistence:
    def test_three_layer_stack_fresh_world_roundtrip(self, tmp_path):
        """A tree written through nullfs -> coherency -> disk onto an
        image serves identical reads from a brand-new World."""
        path = str(tmp_path / "stack.img")
        world = World()
        node = world.create_node("alpha")
        dev = world.create_image(node.nucleus, path, num_blocks=4096)
        sfs = create_sfs(node, dev, placement="two_domains", format_device=True)
        null = NullFs(node.create_domain("null", Credentials("null", True)))
        null.stack_on(sfs.top)
        user = world.create_user_domain(node)
        payload = bytes(range(256)) * 64
        with user.activate():
            d = null.create_dir("tree")
            f = d.create_file("blob.bin")
            f.write(0, payload)
            null.create_file("top.txt").write(0, b"at the root")
        assert world.save() > 0
        dev.close()

        world2 = World()
        node2 = world2.create_node("alpha")
        dev2 = world2.open_image(node2.nucleus, path)
        sfs2 = create_sfs(node2, dev2, placement="two_domains", format_device=False)
        null2 = NullFs(node2.create_domain("null", Credentials("null", True)))
        null2.stack_on(sfs2.top)
        assert sfs2.volume.was_clean
        assert sfs2.volume.fsck() == []
        user2 = world2.create_user_domain(node2)
        with user2.activate():
            assert null2.resolve("tree/blob.bin").read(0, len(payload)) == payload
            assert null2.resolve("top.txt").read(0, 11) == b"at the root"
        dev2.close()

    # What ``sync`` acknowledged is in the image file even though this
    # process never closes (or flushes) its handle — the view a
    # ``kill -9`` leaves behind.
    @pytest.mark.parametrize("placement", ["not_stacked", "two_domains"])
    def test_fsync_of_a_new_file_leaves_nothing_in_the_process(
        self, tmp_path, placement
    ):
        path = str(tmp_path / "fsync.img")
        world = World()
        node = world.create_node("n")
        dev = world.create_image(node.nucleus, path, num_blocks=2048)
        sfs = create_sfs(node, dev, placement=placement, format_device=True)
        bottom = sfs.disk_layer or sfs.top  # DiskFile.sync / the fused copy
        payload = bytes(range(256)) * 100
        with world.create_user_domain(node).activate():
            f = bottom.create_file("acked.bin")
            f.write(0, payload)
            f.sync()  # data, then bitmap, i-node and directory: all of it
        dev2 = image_device(path, fresh=False)
        vol = Volume.mount(dev2)
        ino = vol.lookup(vol.sb.root_ino, "acked.bin")
        assert vol.read_data(ino, 0, len(payload) + 1) == payload
        dev2.close()
        dev.close()

    def test_stacked_fsync_leaves_nothing_in_the_process(self, tmp_path):
        """Stacked, ``sync`` pushes dirty pages through the pager channel
        (never ``Volume.sync``), so the file is allocated and saved
        before the writes under test."""
        path = str(tmp_path / "fsync.img")
        world = World()
        node = world.create_node("n")
        dev = world.create_image(node.nucleus, path, num_blocks=2048)
        sfs = create_sfs(node, dev, placement="two_domains", format_device=True)
        block = bytes(range(256)) * 16
        with world.create_user_domain(node).activate():
            f = sfs.top.create_file("acked.bin")
            f.write(0, bytes(8 * len(block)))
            world.save()
            for index in (5, 0, 3):
                f.write(index * len(block), block)
            f.sync()
        dev2 = image_device(path, fresh=False)
        vol = Volume.mount(dev2)
        data = vol.read_data(vol.lookup(vol.sb.root_ino, "acked.bin"),
                             0, 8 * len(block))
        assert [data[i * len(block):(i + 1) * len(block)] == block
                for i in range(8)] == [i in (0, 3, 5) for i in range(8)]
        dev2.close()
        dev.close()

    @pytest.mark.parametrize("cache", [
        pytest.param(True, marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP item 1(i): a stacked fsync ends in DiskOps.page_out + "
            "device.flush() and never reaches Volume.sync(), so a new file's "
            "i-node, bitmap bit and directory block are not on the device",
        )),
        # ROADMAP item 1(ii): uncached, the coherency layer's ``file_sync``
        # ends in the file below's own ``sync`` (``Volume.commit``).
        False,
    ])
    def test_stacked_fsync_of_a_new_file_survives_a_crash(self, tmp_path, cache):
        path = str(tmp_path / "fsync-new.img")
        world = World()
        node = world.create_node("n")
        dev = world.create_image(node.nucleus, path, num_blocks=2048)
        sfs = create_sfs(node, dev, cache=cache, format_device=True)
        world.save()
        posix = Posix(sfs.top, world.create_user_domain(node))
        page = bytes(range(256)) * 16
        fd = posix.open("new.dat", O_CREAT | O_RDWR)
        posix.pwrite(fd, page, 0)
        posix.fsync(fd)
        # No unmount, no save(): the view a ``kill -9`` leaves behind.
        world2 = World()
        node2 = world2.create_node("n")
        dev2 = world2.open_image(node2.nucleus, path)
        try:
            # Mount what is there: ``format_device`` defaults to True and
            # would wipe the image before the read below.
            sfs2 = create_sfs(node2, dev2, cache=cache, format_device=False)
            sfs2.disk_layer.volume.fsck(repair=True)
            posix2 = Posix(sfs2.top, world2.create_user_domain(node2))
            assert posix2.pread(posix2.open("new.dat"), len(page), 0) == page
        finally:
            dev2.close()
            dev.close()

    def test_fresh_process_serves_identical_reads(self, tmp_path):
        """The acceptance-criteria wording taken literally: a second OS
        process remounts the image and reads the same bytes."""
        path = str(tmp_path / "proc.img")
        dev = image_device(path, num_blocks=2048)
        vol = Volume.mkfs(dev, inode_count=64)
        vol.write_data(
            vol.create(vol.sb.root_ino, "x", FileType.REGULAR).ino,
            0,
            b"cross-process bytes",
        )
        vol.unmount()
        dev.close()
        code = (
            "import sys; sys.path.insert(0, sys.argv[2])\n"
            "from repro.world import World\n"
            "from repro.storage import Volume\n"
            "w = World(); n = w.create_node('n')\n"
            "dev = w.open_image(n.nucleus, sys.argv[1])\n"
            "v = Volume.mount(dev)\n"
            "assert v.was_clean and v.fsck() == []\n"
            "ino = v.lookup(v.sb.root_ino, 'x')\n"
            "assert v.read_data(ino, 0, 19) == b'cross-process bytes'\n"
            "print('OK')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, path, REPO_SRC],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "OK"

    def test_monolithic_unmount_remount(self, tmp_path):
        path = str(tmp_path / "mono.img")
        world = World()
        node = world.create_node("n")
        dev = world.create_image(node.nucleus, path, num_blocks=2048)
        sfs = create_sfs(node, dev, placement="not_stacked", format_device=True)
        user = world.create_user_domain(node)
        with user.activate():
            sfs.top.create_file("m.txt").write(0, b"mono")
        sfs.unmount()
        sfs.remount()
        assert sfs.volume.was_clean
        with user.activate():
            assert sfs.top.resolve("m.txt").read(0, 4) == b"mono"
        dev.close()


class TestCylinderGroups:
    def test_multigroup_layout_roundtrip(self, tmp_path):
        dev = image_device(tmp_path / "cg.img", num_blocks=4096)
        vol = Volume.mkfs(dev, inode_count=128, cylinder_groups=4)
        assert vol.sb.cg_count == 4
        assert len(vol.sb.groups()) == 4
        root = vol.sb.root_ino
        for i in range(40):
            f = vol.create(root, f"f{i}", FileType.REGULAR)
            vol.write_data(f.ino, 0, bytes([i]) * 3000)
        assert vol.fsck() == []
        vol.unmount()
        dev.close()
        dev2 = image_device(tmp_path / "cg.img", fresh=False)
        vol2 = Volume.mount(dev2)
        assert vol2.was_clean
        assert vol2.sb.cg_count == 4
        assert vol2.fsck() == []
        for i in range(40):
            ino = vol2.lookup(vol2.sb.root_ino, f"f{i}")
            assert vol2.read_data(ino, 0, 3000) == bytes([i]) * 3000
        dev2.close()

    def test_file_blocks_follow_inode_group(self):
        """A file made in a directory that sits in a group other than the
        root's takes its i-node, its data blocks and its indirect block
        from that group — not from group 0, where the root and the
        allocator's first cursor are."""
        world = World()
        node = world.create_node("n")
        dev = BlockDevice(node.nucleus, "mem", num_blocks=8192)
        vol = Volume.mkfs(dev, inode_count=256, cylinder_groups=4)
        groups = vol.sb.groups()
        d = vol.create(vol.sb.root_ino, "d", FileType.DIRECTORY)
        gi = vol.sb.group_of_ino(d.ino)
        assert gi != vol.sb.group_of_ino(vol.sb.root_ino) == 0
        f = vol.create(d.ino, "f", FileType.REGULAR)
        assert vol.sb.group_of_ino(f.ino) == gi
        vol.write_data(f.ino, 0, b"z" * (NUM_DIRECT + 2) * dev.block_size)
        g = groups[gi]
        inode = vol.iget(f.ino)
        mapped = vol._mapped_blocks(inode)
        assert len(mapped) == NUM_DIRECT + 2
        for _, block in mapped:
            assert g.data_start <= block < g.end
        assert g.data_start <= inode.indirect < g.end

    def test_directories_spread_across_groups(self):
        world = World()
        node = world.create_node("n")
        dev = BlockDevice(node.nucleus, "mem", num_blocks=8192)
        vol = Volume.mkfs(dev, inode_count=256, cylinder_groups=4)
        root = vol.sb.root_ino
        dirs = [vol.create(root, f"d{i}", FileType.DIRECTORY) for i in range(8)]
        occupied = {vol.sb.group_of_ino(d.ino) for d in dirs}
        assert len(occupied) > 1

    def test_too_many_groups_rejected(self):
        with pytest.raises(StorageError, match="too small"):
            SuperBlock.compute(4096, 64, 64, cylinder_groups=32)

    def test_memory_store_still_default(self):
        world = World()
        node = world.create_node("n")
        dev = BlockDevice(node.nucleus, "mem", num_blocks=128)
        assert isinstance(dev.store, MemoryBlockStore)
        assert not dev.store.persistent
