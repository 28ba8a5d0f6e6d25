"""Tests for the shared layer plumbing in repro.fs.base and the channel
registry: bind handshakes, channel reuse, unsolicited accept_channel,
narrowing of channel ends, the naming face over a file system that is
not a layer, and sync propagation."""

import pytest

from repro.errors import StackingError
from repro.fs.coherency import CoherencyLayer
from repro.fs.disk_layer import DiskLayer
from repro.fs.fs_interfaces import StackableFs
from repro.fs.nullfs import NullFs
from repro.fs.sfs import create_sfs
from repro.ipc.domain import Credentials
from repro.naming.context import MemoryContext
from repro.storage.block_device import RamDevice
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.channel import BindResult, CacheRights
from repro.vm.pager_base import ChannelRegistry


@pytest.fixture
def layered(world, node, user):
    device = RamDevice(node.nucleus, "ram", 8192)
    disk = DiskLayer(node.create_domain("disk"), device, format_device=True)
    coherency = CoherencyLayer(node.create_domain("coh", Credentials("c", True)))
    coherency.stack_on(disk)
    with user.activate():
        f = coherency.create_file("x.dat")
        f.write(0, b"x" * PAGE_SIZE)
    return disk, coherency, user


class TestStacking:
    def test_stack_on_non_stackable_rejected(self, world, node):
        coherency = CoherencyLayer(node.create_domain("c1"))
        with pytest.raises(StackingError):
            coherency.stack_on("not a file system")

    def test_max_under_enforced(self, layered, node):
        disk, coherency, _ = layered
        other = CoherencyLayer(node.create_domain("c2"))
        other.stack_on(disk)
        with pytest.raises(StackingError):
            other.stack_on(disk)

    def test_under_property_requires_stacking(self, node):
        lonely = CoherencyLayer(node.create_domain("c3"))
        with pytest.raises(StackingError):
            _ = lonely.under

    def test_under_layers_returns_copy(self, layered):
        disk, coherency, _ = layered
        layers = coherency.under_layers()
        layers.append("garbage")
        assert coherency.under_layers() == [disk]


class TestChannelRegistry:
    def test_reuse_for_same_source_and_manager(self, layered, node, user):
        disk, coherency, _ = layered
        with user.activate():
            f1 = coherency.resolve("x.dat")
            f2 = coherency.resolve("x.dat")
            aspace = node.vmm.create_address_space("t")
            aspace.map(f1, AccessRights.READ_ONLY).read(0, 1)
            aspace.map(f2, AccessRights.READ_ONLY).read(0, 1)
        assert len(coherency.channels) == 1

    def test_separate_channels_per_source(self, layered, node, user):
        disk, coherency, _ = layered
        with user.activate():
            coherency.create_file("y.dat").write(0, b"y" * PAGE_SIZE)
            aspace = node.vmm.create_address_space("t")
            aspace.map(coherency.resolve("x.dat"), AccessRights.READ_ONLY).read(0, 1)
            aspace.map(coherency.resolve("y.dat"), AccessRights.READ_ONLY).read(0, 1)
        assert len(coherency.channels) == 2
        assert len(coherency.channels.channels_for(
            coherency.resolve("x.dat").source_key)) == 1

    def test_closed_channel_recreated(self, layered, node, user):
        disk, coherency, _ = layered
        with user.activate():
            f = coherency.resolve("x.dat")
            mapping = node.vmm.create_address_space("t").map(
                f, AccessRights.READ_ONLY
            )
            mapping.read(0, 1)
            mapping.cache.channel.pager_object.done_with_pager_object()
            assert len(coherency.channels) == 0
            mapping2 = node.vmm.create_address_space("t2").map(
                coherency.resolve("x.dat"), AccessRights.READ_ONLY
            )
            assert mapping2.read(0, 1) == b"x"
        assert len(coherency.channels) == 1

    def test_close_all(self, layered, node, user):
        assert len(ChannelRegistry()) == 0
        disk, coherency, _ = layered
        with user.activate():
            node.vmm.create_address_space("t").map(
                coherency.resolve("x.dat"), AccessRights.READ_ONLY
            ).read(0, 1)
        (channel,) = coherency.channels.all_channels()
        coherency.channels.close_all()
        assert channel.closed
        assert coherency.channels.all_channels() == []
        assert len(coherency.channels) == 0


class MemoryFs(MemoryContext, StackableFs):
    """A stackable file system that is not a layer: an in-memory tree
    that holds any object under a name."""

    def fs_type(self):
        return "memfs"

    def sync_fs(self):
        pass

    def stack_on(self, underlying):
        raise StackingError("memfs stacks on nothing")

    def under_layers(self):
        return []


class TestLayerNamingForwards:
    def test_a_layer_over_a_plain_tree_forwards_its_names(self, node, user):
        """Over a file system that is not a layer, the layer is one deep;
        naming mutations go below as they are, and what resolves to
        neither a file nor a context comes back unwrapped."""
        memfs = MemoryFs(node.create_domain("mem"))
        nullfs = NullFs(node.create_domain("null"))
        nullfs.stack_on(memfs)
        assert nullfs.runtime.depth == 1
        first, second = object(), object()
        with user.activate():
            nullfs.bind("thing", first)
            assert memfs.resolve("thing") is first
            assert nullfs.resolve("thing") is first
            assert nullfs.rebind("thing", second) is first
            assert memfs.resolve("thing") is second


class TestAcceptChannel:
    def test_unsolicited_accept_rejected(self, layered, node):
        """accept_channel outside a bind_below call is a protocol
        violation and must not silently create state."""
        disk, coherency, _ = layered
        from repro.fs.base import LayerPagerObject

        rogue_pager = LayerPagerObject(node.nucleus, disk, ("disk", 0, 999))
        with pytest.raises(StackingError):
            coherency.accept_channel(rogue_pager, "rogue")

    def test_bind_below_refuses_rights_it_did_not_issue(self, layered, node):
        """A file below that answers the bind with cache rights some
        other cache manager holds leaves this layer with no channel."""
        disk, coherency, _ = layered
        forged = CacheRights(node.create_domain("forger"), "forged")

        class Impostor:
            def get_length(self):
                return 0

            def bind(self, cache_manager, access, offset, length):
                return BindResult(forged, offset)

        with pytest.raises(StackingError, match="rights we did not issue"):
            coherency.bind_below(object(), Impostor(), AccessRights.READ_ONLY)
        assert coherency._pending_bind_state is None

    def test_down_channel_ends_narrow_correctly(self, layered, node, user):
        from repro.ipc.narrow import narrow
        from repro.vm.cache_object import FsCache
        from repro.vm.pager_object import FsPager

        disk, coherency, _ = layered
        with user.activate():
            coherency.resolve("x.dat").read(0, 1)
        state = next(iter(coherency._states.values()))
        assert narrow(state.down_channel.pager_object, FsPager) is not None
        assert narrow(state.down_channel.cache_object, FsCache) is not None


class TestSyncPropagation:
    def test_sync_fs_reaches_every_layer(self, world, node, user):
        """sync_fs on the top layer flushes the whole stack to disk."""
        device = RamDevice(node.nucleus, "ram2", 8192)
        stack = create_sfs(node, device)
        from repro.fs.compfs import CompFs

        compfs = CompFs(node.create_domain("cz", Credentials("c", True)),
                        coherent=False)
        compfs.stack_on(stack.top)
        with user.activate():
            f = compfs.create_file("deep.dat")
            f.write(0, b"must reach the disk")
            compfs.sync_fs()
        from repro.storage.volume import Volume

        volume = Volume.mount(device)
        ino = volume.lookup(volume.sb.root_ino, "deep.dat")
        # COMPFS flushed (compressed image) AND the SFS pushed it down.
        assert volume.iget(ino).size > 0

    def test_pager_ops_fail_loudly_for_unknown_source(self, node):
        """Channel ops on a source the layer never opened fail loudly
        (no silent default), not silently, if something binds to it."""
        from repro.errors import FsError
        from repro.fs.base import BaseLayer, LayerPagerObject

        class InertLayer(BaseLayer):
            def fs_type(self):
                return "inert"

            def resolve(self, name):
                raise NotImplementedError

            def bind(self, name, obj):
                raise NotImplementedError

            def unbind(self, name):
                raise NotImplementedError

            def rebind(self, name, obj):
                raise NotImplementedError

            def list_bindings(self):
                return []

        layer = InertLayer(node.create_domain("inert"))
        pager = LayerPagerObject(layer.domain, layer, "src")
        with pytest.raises(FsError):
            pager.page_in(0, PAGE_SIZE, AccessRights.READ_ONLY)
        with pytest.raises(FsError):
            pager.attr_page_in()
