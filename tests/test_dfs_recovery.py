"""DFS server crash recovery and name-cache graceful degradation.

A server crash loses the volatile per-client holder tables; recovery
(Lustre-style) is detected via the node's epoch bump and rebuilds them
from the surviving clients' ``held_blocks`` reports, replaying any dirty
attribute copies down through the stack.  The name cache's
``serve_stale`` knob covers the naming side: resolution degrades to the
last known answer while the authority is unreachable.
"""

import pytest

from repro.errors import FileNotFoundError_
from repro.fs.cfs import start_cfs
from repro.fs.dfs import export_dfs, mount_remote
from repro.fs.sfs import create_sfs
from repro.ipc.network import NetworkPartitionError
from repro.naming.cache import CAPACITY, NameCache
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights

RW = AccessRights.READ_WRITE


@pytest.fixture
def dist(world):
    server = world.create_node("server")
    client = world.create_node("client")
    device = BlockDevice(server.nucleus, "sd0", 8192)
    sfs = create_sfs(server, device)
    dfs = export_dfs(server, sfs.top)
    mount_remote(client, server, "dfs")
    su = world.create_user_domain(server, "server-user")
    cu = world.create_user_domain(client, "client-user")
    with su.activate():
        dfs.create_file("shared.dat").write(0, b"S" * (2 * PAGE_SIZE))
    return world, server, client, sfs, dfs, su, cu


def remote_file(client, name="shared.dat"):
    return client.fs_context.resolve("dfs@server").resolve(name)


def dfs_state(dfs):
    return next(iter(dfs._states.values()))


def recoveries(dfs):
    return dfs.world.counters.get("dfs.recoveries")


class TestCrashLosesHolderState:
    def test_crash_wipes_holder_tables(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            mapping = client.vmm.create_address_space("c").map(
                remote_file(client), RW
            )
            mapping.write(0, b"CLIENT DIRTY")
        state = dfs_state(dfs)
        assert state.holders._holders  # the client's hold is tracked
        server.crash()
        assert not state.holders._holders  # volatile state gone
        assert server.crashed

    def test_vmm_reports_its_holds(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            mapping = client.vmm.create_address_space("c").map(
                remote_file(client), RW
            )
            mapping.write(0, b"CLIENT DIRTY")
        writer = dfs_state(dfs).holders.writer_of(0)
        with su.activate():
            held = writer.cache_object.held_blocks()
        assert held[0] == (True, True)  # writable and dirty
        assert world.counters.get("vmm.held_blocks") == 1

    def test_attribute_only_channel_reports_none(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        cfs = start_cfs(client)
        with cu.activate():
            cf = cfs.interpose(remote_file(client))
            cf.read(0, 4)
        state = next(iter(cfs._states.values()))
        with cu.activate():
            # CFS keeps no data cache of its own (pages live in the local
            # VMM's channel), so it has nothing to re-declare.
            assert state.down_channel.cache_object.held_blocks() is None


class TestEpochRecovery:
    def test_recovery_recalls_client_dirty_page(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            mapping = client.vmm.create_address_space("c").map(
                remote_file(client), RW
            )
            mapping.write(0, b"CLIENT DIRTY")
        server.crash()
        server.recover()
        # The first post-recovery access re-registers the surviving
        # clients' holds; the normal MRSW recall then fetches the dirty
        # page — no client data is lost to the crash.
        with su.activate():
            assert dfs.resolve("shared.dat").read(0, 12) == b"CLIENT DIRTY"
        assert recoveries(dfs) == 1
        assert dfs_state(dfs).registered_epoch == server.epoch == 1

    def test_recovery_runs_once_per_epoch(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            remote_file(client).read(0, 4)
        server.crash()
        server.recover()
        with su.activate():
            dfs.resolve("shared.dat").read(0, 4)
            dfs.resolve("shared.dat").read(0, 4)
        assert recoveries(dfs) == 1
        server.crash()
        server.recover()
        with su.activate():
            dfs.resolve("shared.dat").read(0, 4)
        assert recoveries(dfs) == 2

    def test_recovery_re_registers_a_reader_read_only(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            mapping = client.vmm.create_address_space("c").map(
                remote_file(client), AccessRights.READ_ONLY
            )
            assert mapping.read(0, 4) == b"SSSS"
        server.crash()
        server.recover()
        with su.activate():
            dfs.resolve("shared.dat").read(0, 4)  # triggers recovery
        # The reader's page is held again, and only for reading: a write
        # below would deny it nothing, and nobody is its writer.
        ((channel, rights),) = dfs_state(dfs).holders.holders_of(0)
        assert channel.cache_object is mapping.cache.channel.cache_object
        assert rights is AccessRights.READ_ONLY
        assert dfs_state(dfs).holders.writer_of(0) is None

    def test_remote_traffic_triggers_recovery_too(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            rf = remote_file(client)
            rf.read(0, 4)
        server.crash()
        server.recover()
        with cu.activate():
            assert rf.read(0, 4) == b"SSSS"
        assert recoveries(dfs) == 1

    def test_dirty_attributes_replayed_from_cfs(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        cfs = start_cfs(client)
        with cu.activate():
            cf = cfs.interpose(remote_file(client))
            cf.write(0, b"ATTR-DIRTY")  # touches mtime: attrs now dirty
            client_mtime = cf.get_attributes().mtime_us
        server.crash()
        server.recover()
        with su.activate():
            dfs.resolve("shared.dat").read(0, 1)  # triggers recovery
            attrs = dfs.resolve("shared.dat").get_attributes()
        # The client's uncommitted attribute update survived the crash:
        # recovery replayed it down through the stack to SFS.
        assert attrs.mtime_us == client_mtime

    def test_no_crash_no_recovery(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        with cu.activate():
            remote_file(client).read(0, 4)
        with su.activate():
            dfs.resolve("shared.dat").read(0, 4)
        assert recoveries(dfs) == 0


def test_a_recall_from_below_reaches_the_client_after_recovery(dist):
    """The first post-recovery access may come from below: a read of
    the file through SFS recalls from DFS, and DFS re-registers the
    surviving clients' holds before it answers."""
    world, server, client, sfs, dfs, su, cu = dist
    with cu.activate():
        mapping = client.vmm.create_address_space("c").map(
            remote_file(client), RW
        )
        mapping.write(0, b"CLIENT DIRTY")
    server.crash()
    server.recover()
    with su.activate():
        assert sfs.top.resolve("shared.dat").read(0, 12) == b"CLIENT DIRTY"
    assert recoveries(dfs) == 1


class TestNameCacheStaleServing:
    def test_stale_serve_during_partition(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        cache = NameCache(world, serve_stale=True)
        with cu.activate():
            first = cache.resolve(client.fs_context, "dfs@server/shared.dat")
            # A binding change on the resolution path invalidates the
            # entry — it demotes to the stale table instead of vanishing.
            client.fs_context.bind("scratch", object())
            world.network.partition(server, client)
            again = cache.resolve(client.fs_context, "dfs@server/shared.dat")
        assert again is first  # the last known answer, not an error
        assert world.counters.get("namecache.stale_serves") == 1

    def test_knob_off_fails_the_open(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        cache = NameCache(world)  # serve_stale defaults off
        with cu.activate():
            cache.resolve(client.fs_context, "dfs@server/shared.dat")
            client.fs_context.bind("scratch", object())
            world.network.partition(server, client)
            with pytest.raises(NetworkPartitionError):
                cache.resolve(client.fs_context, "dfs@server/shared.dat")

    def test_fresh_resolution_supersedes_stale(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        cache = NameCache(world, serve_stale=True)
        with cu.activate():
            cache.resolve(client.fs_context, "dfs@server/shared.dat")
            client.fs_context.bind("scratch", object())
            assert len(cache._stale) == 1
            # Authority reachable again: a real resolution wins and the
            # stale copy is discarded.
            cache.resolve(client.fs_context, "dfs@server/shared.dat")
            assert len(cache._stale) == 0

    def test_capacity_eviction_demotes(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        for i in range(CAPACITY):
            client.fs_context.bind(f"n{i}", object())
        cache = NameCache(world, serve_stale=True)
        with cu.activate():
            cache.resolve(client.fs_context, "dfs@server/shared.dat")
            for i in range(CAPACITY):
                cache.resolve(client.fs_context, f"n{i}")
        assert len(cache._entries) == CAPACITY
        # The LRU victim, kept for degraded mode.
        assert [name for _, name in cache._stale] == ["dfs@server/shared.dat"]

    def test_negative_entries_never_demote(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        cache = NameCache(world, serve_stale=True)
        with cu.activate():
            with pytest.raises(FileNotFoundError_):
                cache.resolve(client.fs_context, "dfs@server/missing.dat")
            client.fs_context.bind("scratch", object())
        assert len(cache._stale) == 0  # a cached failure is not an answer

    def test_clear_drops_stale_table(self, dist):
        world, server, client, sfs, dfs, su, cu = dist
        cache = NameCache(world, serve_stale=True)
        with cu.activate():
            cache.resolve(client.fs_context, "dfs@server/shared.dat")
            client.fs_context.bind("scratch", object())
        cache.clear()
        assert len(cache) == 0
        assert len(cache._stale) == 0
