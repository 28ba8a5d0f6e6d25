"""Tests for the optional event tracer."""

import pytest

from repro.fs.sfs import create_sfs
from repro.sim.trace import CAPACITY, Tracer
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE
from repro.world import World


class TestTracerUnit:
    def test_records_in_order(self):
        tracer = Tracer()
        tracer.record(1.0, "a", "first")
        tracer.record(2.0, "b", "second", extra=1)
        events = tracer.events()
        assert [e.name for e in events] == ["first", "second"]
        assert events[1].detail == {"extra": 1}
        assert events[0].seq < events[1].seq

    def test_capacity_ring(self):
        tracer = Tracer()
        for i in range(CAPACITY + 2):
            tracer.record(float(i), "x", f"e{i}")
        assert tracer.names()[:2] == ["e2", "e3"]
        assert tracer.names()[-1] == f"e{CAPACITY + 1}"
        assert tracer.dropped == 2

    def test_drop_accounting_invariants(self):
        """seq advances for every record (even evicting ones); dropped
        counts exactly the evictions; the oldest retained event's seq is
        always dropped + 1 — the documented Tracer.record contract."""
        tracer = Tracer()
        checkpoints = {1, 2, CAPACITY - 1, CAPACITY, CAPACITY + 1, CAPACITY + 7}
        for total in range(1, CAPACITY + 8):
            tracer.record(float(total), "x", f"e{total}")
            assert len(tracer) == min(total, CAPACITY)
            assert tracer.dropped == max(0, total - CAPACITY)
            if total not in checkpoints:
                continue
            events = tracer.events()
            assert events[0].seq == tracer.dropped + 1
            assert events[-1].seq == total  # no seq reuse across drops
            assert [e.seq for e in events] == list(
                range(events[0].seq, total + 1)
            )

    def test_seq_is_global_across_clear(self):
        """clear() empties the ring and resets dropped, but the global
        event id keeps advancing — ids are never reissued."""
        tracer = Tracer()
        for i in range(CAPACITY + 3):
            tracer.record(float(i), "x", f"e{i}")
        tracer.clear()
        assert tracer.dropped == 0
        tracer.record(9.0, "x", "after")
        assert tracer.events()[0].seq == CAPACITY + 4

    def test_render_reports_drop_count(self):
        tracer = Tracer()
        for i in range(CAPACITY + 3):
            tracer.record(float(i), "x", f"e{i}")
        assert "(3 earlier events dropped)" in tracer.render()

    def test_category_filter(self):
        tracer = Tracer()
        tracer.record(0, "invoke", "a")
        tracer.record(0, "disk", "b")
        tracer.record(0, "invoke", "c")
        assert tracer.names("invoke") == ["a", "c"]

    def test_render_contains_events(self):
        tracer = Tracer()
        tracer.record(123.4, "net", "message", src="a")
        out = tracer.render()
        assert "message" in out and "src=a" in out

    def test_clear(self):
        tracer = Tracer()
        tracer.record(0, "x", "y")
        tracer.clear()
        assert len(tracer) == 0


class TestTracerIntegration:
    def test_disabled_by_default(self, world):
        assert world.tracer is None
        world.trace("x", "should not explode")

    def test_invocations_traced(self, world, node, device, user):
        stack = create_sfs(node, device)
        tracer = world.enable_tracing()
        with user.activate():
            f = stack.top.create_file("t.dat")
            f.write(0, b"traced")
        invokes = tracer.events("invoke")
        assert invokes, "no invocations traced"
        assert any("create_file" in e.name for e in invokes)
        # The path and placement are visible in the detail.
        assert any(e.detail.get("path") == "cross_domain" for e in invokes)

    def test_disk_transfers_traced(self, world, node, user):
        device = BlockDevice(node.nucleus, "sd0", 4096)
        stack = create_sfs(node, device, cache=False)
        tracer = world.enable_tracing()
        with user.activate():
            f = stack.top.create_file("d.dat")
            f.write(0, b"x" * PAGE_SIZE)
        assert tracer.events("disk")

    def test_every_device_transfer_is_traced_with_its_length(self, world, node):
        device = BlockDevice(node.nucleus, "sd0", 64)
        tracer = world.enable_tracing()
        device.read_block(10, 8)
        device.write_block(20, bytes(3 * PAGE_SIZE))
        device.read_block(5)
        assert [
            (e.name, e.detail["blocks"], e.detail["write"])
            for e in tracer.events("disk")
        ] == [("transfer", 8, False), ("transfer", 3, True), ("transfer", 1, False)]

    def test_network_messages_traced(self):
        from repro.fs.dfs import export_dfs, mount_remote
        from repro.storage.block_device import RamDevice

        world = World()
        server = world.create_node("server")
        client = world.create_node("client")
        stack = create_sfs(server, RamDevice(server.nucleus, "ram", 4096))
        dfs = export_dfs(server, stack.top)
        mount_remote(client, server, "dfs")
        tracer = world.enable_tracing()
        cu = world.create_user_domain(client, "cu")
        with cu.activate():
            ctx = client.fs_context.resolve("dfs@server")
            ctx.create_file("r.dat").write(0, b"remote")
        net = tracer.events("network")
        assert net
        assert net[0].detail["src"] == "client"
        assert net[0].detail["dst"] == "server"

    def test_trace_tells_the_fig9_story(self):
        """A remote read's trace shows the layer-by-layer flow the
        paper's sec. 4.5 walkthrough narrates."""
        from repro.fs.creators import (
            LayerSpec,
            build_stack,
            register_standard_creators,
        )
        from repro.fs.dfs import mount_remote
        from repro.storage.block_device import RamDevice

        world = World()
        server = world.create_node("server")
        client = world.create_node("client")
        register_standard_creators(server)
        sfs = create_sfs(server, RamDevice(server.nucleus, "ram", 8192))
        compfs, dfs = build_stack(
            server, sfs.top, [LayerSpec("compfs"), LayerSpec("dfs")],
            export_as="stacked",
        )
        mount_remote(client, server, "stacked")
        su = world.create_user_domain(server, "su")
        cu = world.create_user_domain(client, "cu")
        with su.activate():
            f = dfs.create_file("walk.dat")
            f.write(0, b"w" * PAGE_SIZE)
            f.sync()
        tracer = world.enable_tracing()
        with cu.activate():
            rf = client.fs_context.resolve("stacked@server").resolve("walk.dat")
            rf.read(0, PAGE_SIZE)
        names = tracer.names("invoke")
        # The read hit DfsFile, then CompFile, then the SFS layers.
        assert any(name.startswith("DfsFile.read") for name in names)
        assert any(name.startswith("CompFile.read") for name in names)
