"""Unit tests for DFS: remote access, bind forwarding, cross-node
coherency, and the P2-C2 cache-manager channel."""

import pytest

from repro.fs.dfs import DfsLayer, export_dfs, mount_remote
from repro.fs.sfs import create_sfs
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights

RO = AccessRights.READ_ONLY
RW = AccessRights.READ_WRITE


@pytest.fixture
def dist(world):
    server = world.create_node("server")
    client = world.create_node("client")
    device = BlockDevice(server.nucleus, "sd0", 8192)
    sfs = create_sfs(server, device)
    dfs = export_dfs(server, sfs.top)
    mount_remote(client, server, "dfs")
    server_user = world.create_user_domain(server, "server-user")
    client_user = world.create_user_domain(client, "client-user")
    with server_user.activate():
        f = dfs.create_file("shared.dat")
        f.write(0, b"S" * (2 * PAGE_SIZE))
    return world, server, client, sfs, dfs, server_user, client_user


def remote_file(client, name="shared.dat"):
    return client.fs_context.resolve("dfs@server").resolve(name)


class TestRemoteAccess:
    def test_remote_resolve_and_read(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            rf = remote_file(client)
            assert rf.read(0, 4) == b"SSSS"
        assert world.network.messages > 0

    def test_remote_write_visible_at_server(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            remote_file(client).write(0, b"FROM-CLIENT")
        with su.activate():
            assert dfs.resolve("shared.dat").read(0, 11) == b"FROM-CLIENT"

    def test_remote_create(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            ctx = client.fs_context.resolve("dfs@server")
            f = ctx.create_file("by-client.dat")
            f.write(0, b"made remotely")
        with su.activate():
            assert sfs.top.resolve("by-client.dat").read(0, 13) == b"made remotely"

    def test_remote_stat(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            attrs = remote_file(client).get_attributes()
        assert attrs.size == 2 * PAGE_SIZE

    def test_remote_listing(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            names = [
                n for n, _ in client.fs_context.resolve("dfs@server").list_bindings()
            ]
        assert "shared.dat" in names

    def test_network_charged_for_remote_ops(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        before = world.clock.charged("network")
        with cu.activate():
            remote_file(client).read(0, PAGE_SIZE)
        assert world.clock.charged("network") > before


class TestBindForwarding:
    def test_local_bind_forwarded_to_sfs(self, dist):
        """Local clients of file_DFS use the same cache object as clients
        of file_SFS (Figure 7)."""
        world, server, client, sfs, dfs, su, cu = dist
        with su.activate():
            f_dfs = dfs.resolve("shared.dat")
            f_sfs = sfs.top.resolve("shared.dat")
            aspace = server.vmm.create_address_space("s")
            m_dfs = aspace.map(f_dfs, RW)
            m_sfs = aspace.map(f_sfs, RW)
            assert m_dfs.cache is m_sfs.cache  # the same cached memory
            m_dfs.write(0, b"via dfs mapping")
            assert m_sfs.read(0, 15) == b"via dfs mapping"
        assert world.counters.get("dfs.bind_forwarded") >= 1
        assert world.counters.get("dfs.bind_served") == 0

    def test_remote_bind_served_by_dfs(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            rf = remote_file(client)
            client.vmm.create_address_space("c").map(rf, RO).read(0, 4)
        assert world.counters.get("dfs.bind_served") == 1

    def test_forwarding_disabled_ablation(self, world):
        server = world.create_node("srv2")
        device = BlockDevice(server.nucleus, "sd0", 4096)
        sfs = create_sfs(server, device)
        from repro.ipc.domain import Credentials

        dfs = DfsLayer(
            server.create_domain("dfs2", Credentials("dfs", True)),
            forward_local_binds=False,
        )
        dfs.stack_on(sfs.top)
        user = world.create_user_domain(server)
        with user.activate():
            f = dfs.create_file("x.dat")
            f.write(0, b"x" * PAGE_SIZE)
            server.vmm.create_address_space("u").map(f, RO).read(0, 1)
        assert world.counters.get("dfs.bind_served") == 1
        assert world.counters.get("dfs.bind_forwarded") == 0


class TestCrossNodeCoherency:
    def test_client_mapping_write_recalled_by_server_read(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            rf = remote_file(client)
            mapping = client.vmm.create_address_space("c").map(rf, RW)
            mapping.write(0, b"CLIENT DIRTY")
        with su.activate():
            data = dfs.resolve("shared.dat").read(0, 12)
        assert data == b"CLIENT DIRTY"

    def test_server_write_invalidates_client_mapping(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            rf = remote_file(client)
            mapping = client.vmm.create_address_space("c").map(rf, RW)
            assert mapping.read(0, 4) == b"SSSS"
        with su.activate():
            sfs.top.resolve("shared.dat").write(0, b"SERVER-SIDE!")
        with cu.activate():
            assert mapping.read(0, 12) == b"SERVER-SIDE!"

    def test_two_clients_coherent(self, world, dist):
        _, server, client, sfs, dfs, su, cu = dist
        client2 = world.create_node("client2")
        mount_remote(client2, server, "dfs")
        cu2 = world.create_user_domain(client2, "user2")
        with cu.activate():
            m1 = client.vmm.create_address_space("c1").map(
                remote_file(client), RW
            )
            m1.read(0, 4)
        with cu2.activate():
            rf2 = client2.fs_context.resolve("dfs@server").resolve("shared.dat")
            m2 = client2.vmm.create_address_space("c2").map(rf2, RW)
            m2.write(0, b"FROM CLIENT2")
        with cu.activate():
            assert m1.read(0, 12) == b"FROM CLIENT2"

    def test_writer_migrates_between_clients(self, world, dist):
        _, server, client, sfs, dfs, su, cu = dist
        client2 = world.create_node("client2")
        mount_remote(client2, server, "dfs")
        cu2 = world.create_user_domain(client2, "user2")
        with cu.activate():
            m1 = client.vmm.create_address_space("c1").map(
                remote_file(client), RW
            )
            m1.write(0, b"first writer")
        with cu2.activate():
            rf2 = client2.fs_context.resolve("dfs@server").resolve("shared.dat")
            m2 = client2.vmm.create_address_space("c2").map(rf2, RW)
            assert m2.read(0, 12) == b"first writer"
            m2.write(0, b"SEConDwriter")
        with su.activate():
            assert dfs.resolve("shared.dat").read(0, 12) == b"SEConDwriter"

    def test_remote_truncate_invalidates_clients(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            rf = remote_file(client)
            mapping = client.vmm.create_address_space("c").map(rf, RO)
            mapping.read(0, 4)
        with su.activate():
            dfs.resolve("shared.dat").set_length(10)
        with cu.activate():
            assert remote_file(client).get_attributes().size == 10


class TestPartitionBehaviour:
    def test_remote_read_fails_under_partition(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        from repro.ipc.network import NetworkPartitionError

        with cu.activate():
            rf = remote_file(client)
        world.network.partition(server, client)
        with cu.activate():
            with pytest.raises(NetworkPartitionError):
                rf.read(0, 4)
        world.network.heal_all()
        with cu.activate():
            assert rf.read(0, 4) == b"SSSS"

    def test_local_access_survives_partition(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        world.network.partition(server, client)
        with su.activate():
            assert dfs.resolve("shared.dat").read(0, 4) == b"SSSS"


def _file_with_remote_mapper(kind):
    """A 2-page file of ``A`` on ``kind``, plus a node other than the
    file's and a user on it to map the file from."""
    from repro.dfs import create_sharded_dfs
    from repro.world import World

    if kind == "shardfs":
        cluster = create_sharded_dfs()
        world, root = cluster.world, cluster.layer
        owner = world.create_user_domain(cluster.client)
    else:
        world = World()
        server = world.create_node("server")
        sfs = create_sfs(server, BlockDevice(server.nucleus, "sd0", 8192))
        root = sfs.top if kind == "sfs" else export_dfs(server, sfs.top)
        owner = world.create_user_domain(server)
    with owner.activate():
        root.create_file("t.dat").write(0, b"A" * (2 * PAGE_SIZE))
    mapper = world.create_node("mapper")
    return root, mapper, world.create_user_domain(mapper, "mapper-user")


@pytest.mark.parametrize("kind", ["sfs", "dfs-remote", "shardfs"])
def test_truncate_into_page_a_remote_holder_has_dirty_keeps_its_head(kind):
    """Shrinking into a page recalls it from the holder that dirtied it:
    the bytes below the new length are that holder's, not the stale copy
    underneath."""
    root, mapper, user = _file_with_remote_mapper(kind)
    with user.activate():
        f = root.resolve("t.dat")
        mapping = mapper.vmm.create_address_space("m").map(f, RW)
        mapping.write(10, b"M" * 16)
        f.set_length(50)
        assert f.get_length() == 50
        assert f.read(0, 50)[8:28] == b"AA" + b"M" * 16 + b"AA"
