"""Unit tests for SFS assembly (placements) and the monolithic SFS."""

import pytest

from repro.errors import FsError, StackingError
from repro.fs.monolithic import MonolithicSfs
from repro.fs.sfs import PLACEMENTS, create_sfs
from repro.fs.stack import describe_stack, domains_of, stack_depth, stack_layers
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights


class TestCreateSfs:
    def test_two_domains_placement(self, sfs):
        assert sfs.placement == "two_domains"
        assert sfs.disk_layer.domain is not sfs.coherency_layer.domain
        assert stack_depth(sfs.top) == 2

    def test_one_domain_placement(self, sfs_factory):
        node, stack = sfs_factory(placement="one_domain")
        assert stack.disk_layer.domain is stack.coherency_layer.domain
        assert stack_depth(stack.top) == 2

    def test_not_stacked_placement(self, sfs_factory):
        node, stack = sfs_factory(placement="not_stacked")
        assert isinstance(stack.top, MonolithicSfs)
        assert stack_depth(stack.top) == 1

    def test_unknown_placement_rejected(self, world, node, device):
        with pytest.raises(StackingError):
            create_sfs(node, device, placement="three_domains")

    def test_exported_in_fs_context(self, node, sfs):
        assert node.fs_context.resolve("sfs") is sfs.top

    def test_behaviour_identical_across_placements(self, sfs_factory):
        """Same workload, same results, regardless of placement — only
        the virtual cost differs (that's Table 2's premise)."""
        results = []
        for placement in PLACEMENTS:
            node, stack = sfs_factory(placement=placement)
            user = node.world.create_user_domain(node)
            with user.activate():
                f = stack.top.create_file("w.dat")
                f.write(0, b"abc" * 1000)
                f.write(1500, b"XYZ")
                data = f.read(1498, 7)
                size = f.get_attributes().size
            results.append((data, size))
        assert len(set(results)) == 1

    def test_costs_ordered_across_placements(self, sfs_factory):
        """open cost: not_stacked < one_domain < two_domains."""
        costs = {}
        for placement in PLACEMENTS:
            node, stack = sfs_factory(placement=placement)
            world = node.world
            user = world.create_user_domain(node)
            with user.activate():
                stack.top.create_file("o.dat")
                stack.top.resolve("o.dat")  # warm
                before = world.clock.now_us
                stack.top.resolve("o.dat")
                costs[placement] = world.clock.now_us - before
        assert costs["not_stacked"] < costs["one_domain"] < costs["two_domains"]


class TestMonolithicSfs:
    @pytest.fixture
    def mono(self, sfs_factory):
        node, stack = sfs_factory(placement="not_stacked")
        user = node.world.create_user_domain(node)
        return node, stack.top, user

    def test_create_write_read(self, mono):
        node, fs, user = mono
        with user.activate():
            f = fs.create_file("m.dat")
            f.write(0, b"monolithic")
            assert f.read(0, 10) == b"monolithic"

    def test_cached_reads_avoid_disk(self, mono):
        node, fs, user = mono
        device = fs.device
        with user.activate():
            f = fs.create_file("m.dat")
            f.write(0, b"x" * PAGE_SIZE)
            f.read(0, PAGE_SIZE)
            reads = device.reads
            f.read(0, PAGE_SIZE)
            assert device.reads == reads

    def test_sync_persists(self, mono):
        node, fs, user = mono
        with user.activate():
            f = fs.create_file("m.dat")
            f.write(0, b"durable")
            f.sync()
        from repro.storage.volume import Volume

        volume = Volume.mount(fs.device)
        ino = volume.lookup(volume.sb.root_ino, "m.dat")
        assert volume.read_data(ino, 0, 7) == b"durable"

    def test_mapping_coherent_with_file_interface(self, mono):
        node, fs, user = mono
        with user.activate():
            f = fs.create_file("m.dat")
            f.write(0, b"z" * PAGE_SIZE)
            mapping = node.vmm.create_address_space("t").map(
                f, AccessRights.READ_WRITE
            )
            mapping.write(0, b"MAPPED")
            assert fs.resolve("m.dat").read(0, 6) == b"MAPPED"
            f.write(0, b"FILEIF")
            assert mapping.read(0, 6) == b"FILEIF"

    def test_uncached_read_recalls_a_mapped_writer_into_the_volume(
        self, sfs_factory
    ):
        """Uncached, the monolithic SFS keeps a page it recalls nowhere
        but on the volume: a read writes the mapped writer's page there
        first, then reads it back."""
        node, stack = sfs_factory(placement="not_stacked", cache=False)
        fs = stack.top
        user = node.world.create_user_domain(node)
        with user.activate():
            f = fs.create_file("m.dat")
            f.write(0, b"z" * PAGE_SIZE)
            mapping = node.vmm.create_address_space("t").map(
                f, AccessRights.READ_WRITE
            )
            mapping.write(0, b"MAPPED")
            assert f.read(0, 8) == b"MAPPEDzz"
        ino = fs.volume.lookup(fs.volume.sb.root_ino, "m.dat")
        assert fs.volume.read_data(ino, 0, 6) == b"MAPPED"

    def test_resolve_multi_component(self, mono):
        node, fs, user = mono
        volume = fs.volume
        from repro.storage.inode import FileType

        d = volume.create(volume.sb.root_ino, "dir", FileType.DIRECTORY)
        volume.create(d.ino, "leaf.dat", FileType.REGULAR)
        with user.activate():
            handle = fs.resolve("dir/leaf.dat")
            assert handle.get_length() == 0

    def test_unbind(self, mono):
        node, fs, user = mono
        with user.activate():
            fs.create_file("gone")
            fs.unbind("gone")
            names = [n for n, _ in fs.list_bindings()]
            assert "gone" not in names

    def test_truncate(self, mono):
        node, fs, user = mono
        with user.activate():
            f = fs.create_file("t.dat")
            f.write(0, b"0123456789")
            f.set_length(3)
            assert f.read(0, 100) == b"012"

    def test_stack_on_rejected(self, mono):
        node, fs, user = mono
        with pytest.raises(StackingError):
            fs.stack_on(fs)


class TestStackIntrospection:
    def test_stack_layers_order(self, sfs):
        layers = stack_layers(sfs.top)
        assert [l.fs_type() for l in layers] == ["coherency", "disk"]

    def test_describe_contains_domains(self, sfs):
        text = describe_stack(sfs.top)
        assert "coherency" in text and "disk" in text
        assert "sfs-coherency" in text and "sfs-disk" in text

    def test_domains_of(self, sfs):
        assert domains_of(sfs.top) == [
            "testnode/sfs-coherency",
            "testnode/sfs-disk",
        ]

    def test_diamond_stack_layers_once(self, world, node):
        """fs4 over fs1+fs2 where fs3 also uses fs1: each layer listed
        once."""
        from repro.fs.compfs import CompFs
        from repro.fs.mirrorfs import MirrorFs
        from repro.ipc.domain import Credentials

        dev1 = BlockDevice(node.nucleus, "d1", 4096)
        dev2 = BlockDevice(node.nucleus, "d2", 4096)
        fs1 = create_sfs(node, dev1, name="fs1").top
        fs2 = create_sfs(node, dev2, name="fs2").top
        fs4 = MirrorFs(node.create_domain("fs4", Credentials("m", True)))
        fs4.stack_on(fs1)
        fs4.stack_on(fs2)
        layers = stack_layers(fs4)
        assert len(layers) == len(set(id(l) for l in layers))
        assert stack_depth(fs4) == 3
