"""DFS server crash recovery and name-cache graceful degradation.

A server crash loses the volatile per-client holder tables; recovery
(Lustre-style) is detected via the node's epoch bump and rebuilds them
from the surviving clients' ``held_blocks`` reports, replaying any dirty
attribute copies down through the stack.  On the naming side a partition
fails an open the name cache cannot answer.
"""

import pytest

from repro.fs.cfs import start_cfs
from repro.fs.dfs import export_dfs, mount_remote
from repro.fs.sfs import create_sfs
from repro.ipc.network import NetworkPartitionError
from repro.naming.cache import NameCache
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


def test_a_partition_fails_a_name_cache_miss(dist):
    """An entry invalidated by a binding change on its path is gone:
    the next open resolves for real, and a partition fails it."""
    world, server, client, sfs, dfs, su, cu = dist
    cache = NameCache(world)
    with cu.activate():
        cache.resolve(client.fs_context, "dfs@server/shared.dat")
        client.fs_context.bind("scratch", object())
        world.network.partition(server, client)
        with pytest.raises(NetworkPartitionError):
            cache.resolve(client.fs_context, "dfs@server/shared.dat")
