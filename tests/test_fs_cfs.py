"""Unit tests for CFS: per-file interposition, attribute caching with
invalidation from the server, bind forwarding, and mapped read/write."""

import pytest

from repro.fs.cfs import start_cfs
from repro.fs.dfs import export_dfs, mount_remote
from repro.fs.sfs import create_sfs
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights


@pytest.fixture
def dist(world):
    server = world.create_node("server")
    client = world.create_node("client")
    device = BlockDevice(server.nucleus, "sd0", 8192)
    sfs = create_sfs(server, device)
    dfs = export_dfs(server, sfs.top)
    mount_remote(client, server, "dfs")
    cfs = start_cfs(client)
    server_user = world.create_user_domain(server, "server-user")
    client_user = world.create_user_domain(client, "client-user")
    with server_user.activate():
        f = dfs.create_file("doc.dat")
        f.write(0, b"D" * (2 * PAGE_SIZE))
    return world, server, client, dfs, cfs, server_user, client_user


def interposed(client, cfs, cu, name="doc.dat"):
    with cu.activate():
        remote = client.fs_context.resolve("dfs@server").resolve(name)
        return cfs.interpose(remote)


class TestAttributeCaching:
    def test_first_stat_fetches_then_cached(self, dist):
        world, server, client, dfs, cfs, su, cu = dist
        local = interposed(client, cfs, cu)
        with cu.activate():
            local.get_attributes()
            msgs = world.network.messages
            for _ in range(50):
                local.get_attributes()
            assert world.network.messages == msgs

    def test_without_cfs_every_stat_is_remote(self, dist):
        world, server, client, dfs, cfs, su, cu = dist
        with cu.activate():
            plain = client.fs_context.resolve("dfs@server").resolve("doc.dat")
            msgs = world.network.messages
            for _ in range(10):
                plain.get_attributes()
            assert world.network.messages == msgs + 10

    def test_server_write_invalidates_attr_cache(self, dist):
        world, server, client, dfs, cfs, su, cu = dist
        local = interposed(client, cfs, cu)
        with cu.activate():
            size0 = local.get_attributes().size
        with su.activate():
            dfs.resolve("doc.dat").write(2 * PAGE_SIZE, b"grow")
        with cu.activate():
            assert local.get_attributes().size == size0 + 4
        assert world.counters.get("cfs.attr_invalidated") >= 1

    def test_attr_cache_is_per_file(self, dist):
        world, server, client, dfs, cfs, su, cu = dist
        with su.activate():
            dfs.create_file("other.dat").write(0, b"o")
        a = interposed(client, cfs, cu, "doc.dat")
        b = interposed(client, cfs, cu, "other.dat")
        with cu.activate():
            assert a.get_attributes().size != b.get_attributes().size


class TestInterposition:
    def test_same_file_interposed_once(self, dist):
        world, server, client, dfs, cfs, su, cu = dist
        a = interposed(client, cfs, cu)
        b = interposed(client, cfs, cu)
        assert a.state is b.state
        assert world.counters.get("cfs.interposed") == 1

    def test_wrap_context_interposes_on_resolve(self, dist):
        from repro.fs.cfs import CfsFile

        world, server, client, dfs, cfs, su, cu = dist
        with cu.activate():
            remote_ctx = client.fs_context.resolve("dfs@server")
            wrapped = cfs.wrap_context = cfs.wrap_resolved(remote_ctx)
            local = wrapped.resolve("doc.dat")
            assert isinstance(local, CfsFile)

    def test_cfs_file_same_type_as_file(self, dist):
        from repro.fs.file import File

        world, server, client, dfs, cfs, su, cu = dist
        local = interposed(client, cfs, cu)
        assert isinstance(local, File)


class TestDataPath:
    def test_read_through_local_vmm(self, dist):
        world, server, client, dfs, cfs, su, cu = dist
        local = interposed(client, cfs, cu)
        with cu.activate():
            assert local.read(0, 4) == b"DDDD"
            # Second read is a local VMM cache hit: no new messages.
            msgs = world.network.messages
            assert local.read(0, 4) == b"DDDD"
            assert world.network.messages == msgs

    def test_write_and_read_back(self, dist):
        world, server, client, dfs, cfs, su, cu = dist
        local = interposed(client, cfs, cu)
        with cu.activate():
            local.write(10, b"cfs wrote")
            assert local.read(10, 9) == b"cfs wrote"

    def test_write_visible_at_server_after_recall(self, dist):
        world, server, client, dfs, cfs, su, cu = dist
        local = interposed(client, cfs, cu)
        with cu.activate():
            local.write(0, b"PUSH ME")
        with su.activate():
            assert dfs.resolve("doc.dat").read(0, 7) == b"PUSH ME"

    def test_growth_through_cfs(self, dist):
        world, server, client, dfs, cfs, su, cu = dist
        local = interposed(client, cfs, cu)
        with cu.activate():
            end = local.get_length()
            local.write(end, b"appended")
            assert local.get_length() == end + 8
        with su.activate():
            assert dfs.resolve("doc.dat").get_attributes().size == end + 8

    def test_truncate_through_cfs(self, dist):
        world, server, client, dfs, cfs, su, cu = dist
        local = interposed(client, cfs, cu)
        with cu.activate():
            local.get_attributes()  # cached from here on
            local.set_length(100)
            assert local.get_length() == 100
        with su.activate():
            assert dfs.resolve("doc.dat").get_attributes().size == 100

    def test_bind_forwarded_to_remote(self, dist):
        """Mapping a CfsFile wires the local VMM straight to the remote
        DFS pager; CFS is not in the page path."""
        world, server, client, dfs, cfs, su, cu = dist
        local = interposed(client, cfs, cu)
        with cu.activate():
            mapping = client.vmm.create_address_space("c").map(
                local, AccessRights.READ_ONLY
            )
            assert mapping.read(0, 4) == b"DDDD"
        assert world.counters.get("cfs.bind_forwarded") >= 1
        assert world.counters.get("dfs.bind_served") >= 1

    def test_sync_pushes_dirty_attrs(self, dist):
        world, server, client, dfs, cfs, su, cu = dist
        local = interposed(client, cfs, cu)
        with cu.activate():
            local.write(0, b"dirty attrs")
            local.sync()
        with su.activate():
            attrs = dfs.resolve("doc.dat").get_attributes()
        assert attrs.size >= 11
