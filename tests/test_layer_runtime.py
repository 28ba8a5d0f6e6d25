"""The unified layer runtime: dispatch spine, telemetry, calibration.

Covers the spine refactor's acceptance criteria:

* per-layer ``<layer>.<op>`` breakdown for a 3-deep stack;
* golden calibration — Table 2/3 renders and the BENCH_*.json records
  stay byte-identical to the committed (pre-refactor) outputs;
* interposition (``ipc/interpose.py``) and narrowing (``ipc/narrow.py``)
  against the spine — an interposed layer still sees every channel op
  exactly once.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.errors import DeviceError, NarrowError
from repro.fs.dfs import DfsLayer
from repro.fs.interposer import AuditFile
from repro.fs.sfs import create_sfs
from repro.fs.stack import layer_op_breakdown, render_layer_breakdown
from repro.ipc.domain import Credentials
from repro.ipc.narrow import narrow, narrow_or_raise
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.cache_object import FsCache
from repro.vm.pager_object import FsPager

GOLDEN = pathlib.Path(__file__).parent / "golden"
BENCH = pathlib.Path(__file__).parent.parent / "benchmarks"

RW = AccessRights.READ_WRITE
RO = AccessRights.READ_ONLY


@pytest.fixture
def dfs_stack(world, node, device):
    """DFS (serving local binds) on coherency on disk — three layers,
    every mapping fault travels pager-to-pager down all of them."""
    sfs = create_sfs(node, device)
    dfs = DfsLayer(
        node.create_domain("dfs", Credentials("dfs", privileged=True)),
        forward_local_binds=False,
    )
    dfs.stack_on(sfs.top)
    return dfs


# ---------------------------------------------------------------------------
# Per-layer telemetry breakdown (tentpole acceptance criterion)
# ---------------------------------------------------------------------------
class TestLayerBreakdown:
    def test_three_deep_stack_rows(self, world, node, device, user, dfs_stack):
        with user.activate():
            f = dfs_stack.create_file("tele.dat")
            f.write(0, b"t" * (2 * PAGE_SIZE))
            f.sync()
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.read(0, PAGE_SIZE)
        rows = layer_op_breakdown(dfs_stack)
        assert [(fs, depth) for fs, depth, _ in rows] == [
            ("dfs", 2),
            ("coherency", 1),
            ("disk", 0),
        ]
        for fs, _, ops in rows:
            count, nbytes = ops["page_in"]
            assert count >= 1, f"{fs} recorded no page_in"
            assert nbytes >= PAGE_SIZE

    def test_rendered_breakdown_names_every_layer_op(
        self, world, node, device, user, dfs_stack
    ):
        with user.activate():
            f = dfs_stack.create_file("tele.dat")
            f.write(0, b"t" * PAGE_SIZE)
            f.sync()
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.read(0, PAGE_SIZE)
            mapping.write(0, b"dirty")
            mapping.cache.sync()
        out = render_layer_breakdown(dfs_stack)
        for line in ("dfs.page_in", "coherency.page_in", "disk.page_in",
                     "dfs.sync", "bytes"):
            assert line in out
        assert "(depth 2)" in out and "(depth 0)" in out

    def test_report_module_emits_breakdown(self):
        from repro.report import build_layer_breakdown_demo

        out = build_layer_breakdown_demo()
        assert "dfs (depth 2)" in out
        assert "coherency (depth 1)" in out
        assert "disk (depth 0)" in out
        assert "dfs.page_in" in out and "disk.page_in" in out

    def test_counters_only_exist_for_dispatched_ops(
        self, world, node, device, user, dfs_stack
    ):
        """The spine records at the choke-point only — ops that never
        travelled a channel must not appear in the breakdown."""
        with user.activate():
            f = dfs_stack.create_file("tele.dat")
            f.write(0, b"t")
            f.read(0, 1)  # pure file-interface traffic
        rows = layer_op_breakdown(dfs_stack)
        dfs_ops = rows[0][2]
        assert "delete_range" not in dfs_ops
        assert "destroy_cache" not in dfs_ops


# ---------------------------------------------------------------------------
# LayerRuntime.dispatch: one call per channel op counts it
# ---------------------------------------------------------------------------
def _map_and_read(node, f, pages):
    mapping = node.vmm.create_address_space("t").map(f, RO)
    for page in range(pages):
        mapping.read(page * PAGE_SIZE, 16)


class TestDispatch:
    def test_a_page_in_that_raises_below_is_counted_at_every_layer(
        self, world, node, device, user, dfs_stack
    ):
        with user.activate():
            f = dfs_stack.create_file("bad.dat")
            f.write(0, b"x" * PAGE_SIZE)
            f.sync()
        volume = dfs_stack.under.under.volume
        inode = volume.iget(volume.lookup(volume.sb.root_ino, "bad.dat"))
        device.inject_bad_block(volume.bmap(inode, 0))
        (state,) = dfs_stack.under._states.values()
        state.store.clear()  # the coherency layer's cache cold
        before = world.counters.snapshot()
        with user.activate(), pytest.raises(DeviceError):
            _map_and_read(node, f, 1)
        counted = world.counters.delta_since(before)
        for fs in ("dfs", "coherency", "disk"):
            assert counted[f"{fs}.page_in"] == 1, fs

    def test_flush_back_counts_the_bytes_it_returned(
        self, world, node, user, dfs_stack
    ):
        """A write below the DFS layer takes the dirty page back from
        the mapping above it: one flush_back, carrying that page."""
        with user.activate():
            f = dfs_stack.create_file("flush.dat")
            f.write(0, bytes(PAGE_SIZE))
            f.sync()
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.write(0, b"MAPPED")
            dfs_stack.under.resolve("flush.dat").write(PAGE_SIZE // 2, b"below")
        assert world.counters.get("dfs.flush_back") == 1
        assert world.counters.get("dfs.flush_back.bytes") == PAGE_SIZE


# ---------------------------------------------------------------------------
# Golden calibration (satellite): byte-identical before/after the refactor
# ---------------------------------------------------------------------------
class TestGoldenCalibration:
    def test_table2_quick_render_is_golden(self):
        from repro.bench.table2 import run_table2

        rendered = run_table2(iterations=5, runs=1).render() + "\n"
        assert rendered == (GOLDEN / "table2_quick.txt").read_text()

    def test_table3_quick_render_is_golden(self):
        from repro.bench.table3 import run_table3

        rendered = run_table3(iterations=5, runs=1).render() + "\n"
        assert rendered == (GOLDEN / "table3_quick.txt").read_text()

    def test_bench_ipc_record_matches_committed(self):
        from benchmarks.bench_ipc_compound import build_record
        from benchmarks.emit_common import dump_record

        assert dump_record(build_record()) == (BENCH / "BENCH_ipc.json").read_text()

    def test_bench_paging_record_matches_committed(self):
        from benchmarks.bench_macro_workload import build_record
        from benchmarks.emit_common import dump_record

        assert (
            dump_record(build_record())
            == (BENCH / "BENCH_paging.json").read_text()
        )


# ---------------------------------------------------------------------------
# Interposition + narrowing against the spine (satellite)
# ---------------------------------------------------------------------------
class TestInterposedLayerSeesEveryOpOnce:
    def test_each_fault_dispatches_once_per_layer(
        self, world, node, device, user, dfs_stack
    ):
        with user.activate():
            f = dfs_stack.create_file("once.dat")
            f.write(0, b"o" * PAGE_SIZE)
            f.sync()
            before = {
                key: world.counters.get(key)
                for key in ("dfs.page_in", "coherency.page_in", "disk.page_in")
            }
            mapping = node.vmm.create_address_space("t").map(f, RO)
            mapping.read(0, 10)  # one fault, one page
        # Exactly one dispatch per interposed layer — never two.  The
        # coherency layer's page cache absorbs the fault (the write above
        # already pulled the page from disk), so disk sees none.
        assert world.counters.get("dfs.page_in") == before["dfs.page_in"] + 1
        assert (
            world.counters.get("coherency.page_in")
            == before["coherency.page_in"] + 1
        )
        assert world.counters.get("disk.page_in") == before["disk.page_in"]

    def test_writeback_sync_dispatches_once(
        self, world, node, device, user, dfs_stack
    ):
        with user.activate():
            f = dfs_stack.create_file("once.dat")
            f.write(0, bytes(PAGE_SIZE))
            f.sync()
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.write(0, b"dirty")
            assert world.counters.get("dfs.sync") == 0
            mapping.cache.sync()
        assert world.counters.get("dfs.sync") == 1

    def test_recall_through_interposed_layer_once(
        self, world, node, device, user, dfs_stack
    ):
        """A local read below the interposed layer recalls the dirty page
        through it: exactly one write_back (collect-latest) reaches DFS's
        fs_cache, and the recalled bytes win."""
        sfs_top = dfs_stack.under
        with user.activate():
            f = dfs_stack.create_file("recall.dat")
            f.write(0, bytes(PAGE_SIZE))
            f.sync()
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.write(0, b"MAPPED")
            assert world.counters.get("dfs.write_back") == 0
            data = sfs_top.resolve("recall.dat").read(0, 6)
        assert data == b"MAPPED"
        assert world.counters.get("dfs.write_back") == 1
        assert world.counters.get("dfs.write_back.bytes") == PAGE_SIZE

    def test_audit_interposer_forwards_to_spine_unchanged(
        self, world, node, device, user, dfs_stack
    ):
        """Object interposition (paper sec. 5): an AuditFile substituted
        for a spine-served file forwards read/write/bind; the layer
        underneath sees exactly the same single dispatch per op."""
        with user.activate():
            f = dfs_stack.create_file("audit.dat")
            f.write(0, b"a" * PAGE_SIZE)
            f.sync()
            audit = AuditFile(user, f)
            assert audit.read(0, 4) == b"aaaa"
            audit.write(4, b"bbbb")
            assert audit.forwarded_count("read") == 1
            assert audit.forwarded_count("write") == 1
            before = world.counters.get("dfs.page_in")
            mapping = node.vmm.create_address_space("t").map(audit, RO)
            mapping.read(0, 8)
            assert audit.forwarded_count("bind") == 1
        assert world.counters.get("dfs.page_in") == before + 1

    def test_channel_ends_narrow_correctly(
        self, world, node, device, user, dfs_stack
    ):
        """Sec. 4.3 narrowing: a layer's pager object narrows to
        fs_pager; its downstream cache object narrows to fs_cache; a
        plain VMM cache manager's does not."""
        with user.activate():
            f = dfs_stack.create_file("narrow.dat")
            f.write(0, b"n" * PAGE_SIZE)
            f.sync()
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.read(0, 1)
        state = next(iter(dfs_stack._states.values()))
        # Downstream: DFS is cache manager to coherency; both channel
        # ends are fs-grade.
        assert narrow(state.down_channel.pager_object, FsPager) is not None
        assert narrow(state.down_channel.cache_object, FsCache) is not None
        # Upstream: the VMM bound to DFS's pager; the VMM's cache object
        # is a plain cache manager, NOT an fs_cache.
        (channel,) = dfs_stack.channels.channels_for(state.source_key)
        assert narrow(channel.pager_object, FsPager) is not None
        assert narrow(channel.cache_object, FsCache) is None
        with pytest.raises(NarrowError):
            narrow_or_raise(channel.cache_object, FsCache)
