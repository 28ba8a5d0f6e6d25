"""Distributed naming tests: contexts served by remote domains, charged
per hop; remote mounts composed into a node's name space; interposition on
remote names — "any domain may implement a naming context and ... bind
the context in any other context" (paper sec. 3.2), across machines."""

import pytest

from repro.fs.sfs import create_sfs
from repro.naming.cache import NameCache
from repro.naming.context import MemoryContext
from repro.storage.block_device import RamDevice
from repro.world import World


@pytest.fixture
def two_nodes(world):
    return world.create_node("a"), world.create_node("b")


class TestCrossNodeContexts:
    def test_remote_context_resolvable(self, world, two_nodes):
        node_a, node_b = two_nodes
        remote = MemoryContext(node_a.nucleus)
        remote.bind("greeting", "hello from a")
        node_b.fs_context.bind("a-stuff", remote)
        user_b = world.create_user_domain(node_b)
        with user_b.activate():
            assert (
                node_b.fs_context.resolve("a-stuff/greeting") == "hello from a"
            )

    def test_each_hop_charged_where_it_runs(self, world, two_nodes):
        """Resolution hops context to context; a hop to a remote
        context costs a network round trip, local hops do not."""
        node_a, node_b = two_nodes
        remote = MemoryContext(node_a.nucleus)
        remote.bind("leaf", 1)
        node_b.fs_context.bind("far", remote)
        user_b = world.create_user_domain(node_b)
        with user_b.activate():
            messages_before = world.network.messages
            node_b.fs_context.resolve("far/leaf")
            # one message: the hop into node a's context.
            assert world.network.messages == messages_before + 1

    def test_chain_across_three_nodes(self, world):
        nodes = [world.create_node(f"n{i}") for i in range(3)]
        ctx1 = MemoryContext(nodes[1].nucleus)
        ctx2 = MemoryContext(nodes[2].nucleus)
        ctx1.bind("hop2", ctx2)
        ctx2.bind("treasure", "found")
        nodes[0].fs_context.bind("hop1", ctx1)
        user = world.create_user_domain(nodes[0])
        with user.activate():
            messages_before = world.network.messages
            assert (
                nodes[0].fs_context.resolve("hop1/hop2/treasure") == "found"
            )
            assert world.network.messages - messages_before == 2

    def test_namespace_composes_remote_mounts(self, world, two_nodes):
        """A node's name space can point at a remote file system —
        naming stays orthogonal to location."""
        node_a, node_b = two_nodes
        stack = create_sfs(node_a, RamDevice(node_a.nucleus, "ram", 4096))
        user_b = world.create_user_domain(node_b)
        node_b.fs_context.bind("homedir", stack.top)
        with user_b.activate():
            home = node_b.fs_context.resolve("homedir")
            f = home.create_file("note.txt")
            f.write(0, b"written across the network")
            note = node_b.fs_context.resolve("homedir/note.txt")
            assert note.read(0, 7) == b"written"

    def test_partition_blocks_remote_resolution(self, world, two_nodes):
        from repro.ipc.network import NetworkPartitionError

        node_a, node_b = two_nodes
        remote = MemoryContext(node_a.nucleus)
        remote.bind("x", 1)
        node_b.fs_context.bind("far", remote)
        user_b = world.create_user_domain(node_b)
        world.network.partition(node_a, node_b)
        with user_b.activate():
            with pytest.raises(NetworkPartitionError):
                node_b.fs_context.resolve("far/x")
            # Purely local names keep resolving.
            assert node_b.fs_context.resolve("far") is remote


class TestNameCacheOverTheNetwork:
    def test_cache_eliminates_remote_hops(self, world, two_nodes):
        node_a, node_b = two_nodes
        remote = MemoryContext(node_a.nucleus)
        remote.bind("leaf", "payload")
        node_b.fs_context.bind("far", remote)
        cache = NameCache(world)
        user_b = world.create_user_domain(node_b)
        with user_b.activate():
            cache.resolve(node_b.fs_context, "far/leaf")
            messages_before = world.network.messages
            for _ in range(20):
                assert cache.resolve(node_b.fs_context, "far/leaf") == "payload"
            assert world.network.messages == messages_before

    def test_remote_rebind_invalidates_cached_name(self, world, two_nodes):
        node_a, node_b = two_nodes
        remote = MemoryContext(node_a.nucleus)
        remote.bind("leaf", "v1")
        node_b.fs_context.bind("far", remote)
        cache = NameCache(world)
        user_b = world.create_user_domain(node_b)
        with user_b.activate():
            assert cache.resolve(node_b.fs_context, "far/leaf") == "v1"
        remote.rebind("leaf", "v2")
        with user_b.activate():
            assert cache.resolve(node_b.fs_context, "far/leaf") == "v2"


class TestRemoteInterposition:
    def test_watchdog_on_remote_directory(self, world, two_nodes):
        """Interpose locally on a remotely-served tree: the watchdog
        context lives on node b, the files on node a."""
        from repro.fs.interposer import AuditFile, interpose_on_name

        node_a, node_b = two_nodes
        stack = create_sfs(node_a, RamDevice(node_a.nucleus, "ram", 4096))
        user_b = world.create_user_domain(node_b)
        with user_b.activate():
            stack.top.create_file("watched.txt").write(0, b"remote bytes")
        node_b.fs_context.bind("mnt", stack.top)
        watchdog = interpose_on_name(node_b.fs_context, "mnt", node_b.nucleus)
        audits = []

        def wrap(f):
            audit = AuditFile(node_b.nucleus, f)
            audits.append(audit)
            return audit

        watchdog.watch("watched.txt", wrap)
        with user_b.activate():
            via = node_b.fs_context.resolve("mnt").resolve("watched.txt")
            assert via.read(0, 6) == b"remote"
        assert audits and audits[0].audit_log == [("read", 0, 6)]
