"""Integration tests: full multi-layer stacks exercised end to end,
including the paper's sec. 4.5 walkthrough and the figure scenarios."""

import pytest

from repro.bench import figures
from repro.bench.workloads import compressible_bytes, pattern_bytes
from repro.fs.compfs import MAGIC
from repro.fs.creators import LayerSpec, build_stack, register_standard_creators
from repro.fs.dfs import mount_remote
from repro.fs.sfs import create_sfs
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights
from repro.unix import O_CREAT, O_RDWR, Posix
from repro.world import World


class TestSection45Walkthrough:
    """The paper's 'putting everything together' sequence, step by step."""

    @pytest.fixture
    def stacked(self, world):
        server = world.create_node("server")
        client = world.create_node("client")
        register_standard_creators(server)
        device = BlockDevice(server.nucleus, "sd0", 16384)
        sfs = create_sfs(server, device)
        compfs, dfs = build_stack(
            server,
            sfs.top,
            [LayerSpec("compfs", {"coherent": True}), LayerSpec("dfs")],
            export_as="stacked",
            export_all=True,
        )
        mount_remote(client, server, "stacked")
        return world, server, client, sfs, compfs, dfs

    def test_remote_lookup_resolves_through_all_layers(self, stacked):
        world, server, client, sfs, compfs, dfs = stacked
        su = world.create_user_domain(server, "su")
        cu = world.create_user_domain(client, "cu")
        with su.activate():
            dfs.create_file("walk.dat").write(0, b"resolved through the stack")
        with cu.activate():
            remote = client.fs_context.resolve("stacked@server")
            f = remote.resolve("walk.dat")
            assert f.read(0, 26) == b"resolved through the stack"

    def test_remote_read_decompresses_on_the_way(self, stacked):
        world, server, client, sfs, compfs, dfs = stacked
        su = world.create_user_domain(server, "su")
        cu = world.create_user_domain(client, "cu")
        payload = compressible_bytes(64 * 1024, seed=11)
        with su.activate():
            f = dfs.create_file("big.dat")
            f.write(0, payload)
            f.sync()
        snapshot = world.counters.snapshot()
        with cu.activate():
            remote = client.fs_context.resolve("stacked@server")
            assert remote.resolve("big.dat").read(0, len(payload)) == payload
        traffic = world.counters.delta_since(snapshot)
        # COMPFS served page-ins; SFS served COMPFS; the disk was read.
        assert traffic.get("compfs.page_in", 0) > 0 or traffic.get(
            "op.read", 0
        ) > 0

    def test_all_views_coherent(self, stacked):
        """'At any point the underlying data may be accessed through
        file_COMP or (compressed) through file_SFS.  All such accesses
        will be coherent with each other and with remote DFS clients.'"""
        world, server, client, sfs, compfs, dfs = stacked
        su = world.create_user_domain(server, "su")
        cu = world.create_user_domain(client, "cu")
        with su.activate():
            dfs.create_file("coh.dat").write(0, b"first")
        with cu.activate():
            remote = client.fs_context.resolve("stacked@server")
            rf = remote.resolve("coh.dat")
            assert rf.read(0, 5) == b"first"
            rf.write(0, b"SECND")
        with su.activate():
            assert compfs.resolve("coh.dat").read(0, 5) == b"SECND"
            # And the raw SFS bytes are a fresh compressed image.
            raw = sfs.top.resolve("coh.dat")
            assert raw.read(0, 4) == MAGIC

    def test_underlying_files_exported_too(self, stacked):
        """'A decision is made whether or not to export SFS, COMPFS, and
        DFS files' — export_all bound each layer into /fs."""
        world, server, client, sfs, compfs, dfs = stacked
        names = [n for n, _ in server.fs_context.list_bindings()]
        assert "sfs" in names
        assert any(n.startswith("compfs-") for n in names)
        assert "stacked" in names


class TestDeepStacks:
    def test_four_layer_stack(self, world):
        """cryptfs on compfs on coherency on disk: transforms compose."""
        node = world.create_node("deep")
        register_standard_creators(node)
        device = BlockDevice(node.nucleus, "sd0", 16384)
        sfs = create_sfs(node, device)
        compfs, cryptfs = build_stack(
            node,
            sfs.top,
            [LayerSpec("compfs", {"coherent": True}), LayerSpec("cryptfs")],
            export_as="vault",
        )
        user = world.create_user_domain(node)
        payload = compressible_bytes(20_000, seed=12)
        with user.activate():
            top = node.fs_context.resolve("vault")
            f = top.create_file("secret.dat")
            f.write(0, payload)
            f.sync()
            assert top.resolve("secret.dat").read(0, len(payload)) == payload

    def test_posix_over_deep_stack(self, world):
        node = world.create_node("deep2")
        register_standard_creators(node)
        device = BlockDevice(node.nucleus, "sd0", 16384)
        sfs = create_sfs(node, device)
        build_stack(node, sfs.top, [LayerSpec("compfs")], export_as="cz")
        user = world.create_user_domain(node)
        posix = Posix(node.fs_context.resolve("cz"), user)
        posix.mkdir("home")
        fd = posix.open("home/notes.txt", O_RDWR | O_CREAT)
        posix.write(fd, b"posix over a stack")
        posix.lseek(fd, 0)
        assert posix.read(fd, 18) == b"posix over a stack"
        assert posix.listdir("home") == ["notes.txt"]

    def test_many_files_many_layers(self, world):
        node = world.create_node("many")
        register_standard_creators(node)
        device = BlockDevice(node.nucleus, "sd0", 32768)
        sfs = create_sfs(node, device)
        (compfs,) = build_stack(node, sfs.top, [LayerSpec("compfs")])
        user = world.create_user_domain(node)
        with user.activate():
            for i in range(25):
                f = compfs.create_file(f"file{i:02d}.dat")
                f.write(0, pattern_bytes(3000 + i * 100, tag=i))
            compfs.sync_fs()
            for i in range(25):
                f = compfs.resolve(f"file{i:02d}.dat")
                expected = pattern_bytes(3000 + i * 100, tag=i)
                assert f.read(0, len(expected)) == expected
        # The volume stayed consistent underneath it all.
        assert sfs.disk_layer.volume.fsck() == []


class TestFigureScenarios:
    """The figure builders double as integration assertions."""

    def test_fig01(self):
        result = figures.fig01_node_structure()
        assert result["vmm_in_nucleus"]
        assert "fs_creators" in result["root_contexts"]

    def test_fig02(self):
        result = figures.fig02_pager_cache_channels()
        assert result["pager1_channels_to_vmm1"] == 2
        assert result["pager2_channels"] == 2
        assert result["vmm2_caches"] == 1

    def test_fig03(self):
        result = figures.fig03_configuration()
        assert result["fs4_unders"] == ["coherency", "coherency"]
        assert result["replicas_match"]

    def test_fig04(self):
        result = figures.fig04_dual_role()
        assert all(
            result[k]
            for k in (
                "acts_as_pager_to_vmm",
                "acts_as_cache_manager_below",
                "up_cache_is_plain_cache",
                "down_pager_is_fs_pager",
            )
        )

    def test_fig05_incoherent(self):
        result = figures.fig05_compfs_case1()
        assert result["stored_is_compressed"]
        assert not result["compfs_sees_direct_write"]

    def test_fig06_coherent(self):
        result = figures.fig06_compfs_case2()
        assert result["compfs_sees_direct_write"]
        assert result["flush_events_at_compfs"] >= 1

    def test_fig07(self):
        result = figures.fig07_dfs()
        assert result["binds_forwarded"] >= 1
        assert result["local_sees_remote_write"]

    def test_fig08(self):
        result = figures.fig08_interface_hierarchy()
        assert all(v is True for v in result.values())

    def test_fig09(self):
        result = figures.fig09_full_stack()
        assert result["remote_read_correct"]
        assert result["stored_bytes"] < result["plain_bytes"]
        assert result["depth"] == 4

    def test_fig10(self):
        result = figures.fig10_sfs_structure()
        assert result["layers"] == ["coherency", "disk"]
        assert result["separate_domains"]
        assert result["exported_is_coherency_layer"]
