"""Tests for the vectored paging pipeline: dirty-run coalescing, pager
write-back calls that carry whole runs (batched write-back through a
real 2-layer stack), the VMM's O(1) eviction clock, multi-stream
read-ahead detection, and read-ahead hint forwarding through stacked
layers."""

import types

import pytest

from repro.bench.workloads import incompressible_bytes
from repro.fs.cfs import start_cfs
from repro.fs.compfs import CompFs
from repro.fs.sfs import create_sfs
from repro.ipc.domain import Credentials
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.page import PageStore, coalesce_runs, index_runs
from repro.vm.pager_object import PagerObject
from repro.vm.readahead import StreamTable
from repro.vm.vmm import VmCache

from tests.test_demand_runs import calls_below

RO = AccessRights.READ_ONLY
RW = AccessRights.READ_WRITE


def no_fault(index, access):
    raise AssertionError(f"unexpected fault on page {index}")


class RecordingPager(PagerObject):
    """Concrete pager that logs calls; every write-back op accepts one
    page or a whole run."""

    def __init__(self, domain) -> None:
        super().__init__(domain)
        self.log = []

    def page_in(self, offset, size, access):
        self.log.append(("page_in", offset, size))
        return bytes(size)

    def page_out(self, offset, size, data):
        self.log.append(("page_out", offset, size))

    def write_out(self, offset, size, data):
        self.log.append(("write_out", offset, size))

    def sync(self, offset, size, data):
        self.log.append(("sync", offset, size))

    def done_with_pager_object(self):
        pass


# --------------------------------------------------------------------------
# Dirty-run coalescing
# --------------------------------------------------------------------------
class TestDirtyRuns:
    def test_write_across_page_boundary_is_one_run(self):
        store = PageStore()
        for index in range(3):
            store.install(index, b"", RW)
        store.write(PAGE_SIZE - 50, b"x" * 100, no_fault)  # dirties 0 and 1
        runs = coalesce_runs(store.dirty_pages())
        assert [[i for i, _ in run] for run in runs] == [[0, 1]]

    def test_clean_gap_splits_runs(self):
        store = PageStore()
        for index in range(5):
            store.install(index, b"", RW)
        store.write(0, b"a", no_fault)
        store.write(PAGE_SIZE, b"b", no_fault)
        store.write(3 * PAGE_SIZE, b"c", no_fault)  # page 2 stays clean
        runs = coalesce_runs(store.dirty_pages())
        assert [[i for i, _ in run] for run in runs] == [[0, 1], [3]]

    def test_runs_ascend_regardless_of_write_order(self):
        store = PageStore()
        for index in (7, 2, 3, 8):
            store.install(index, b"", RW)
            store.write(index * PAGE_SIZE, b"d", no_fault)
        runs = coalesce_runs(store.dirty_pages())
        assert [[i for i, _ in run] for run in runs] == [[2, 3], [7, 8]]

    def test_coalesce_runs_empty(self):
        assert coalesce_runs([]) == []

    def test_index_runs(self):
        assert index_runs([]) == []
        assert index_runs([4]) == [(4, 1)]
        assert index_runs([1, 2, 3, 7, 9, 10]) == [(1, 3), (7, 1), (9, 2)]


# --------------------------------------------------------------------------
# Multi-stream sequential detection
# --------------------------------------------------------------------------
class TestStreamTable:
    def test_single_stream_detected(self):
        streams = StreamTable()
        assert not streams.observe(0)
        assert streams.observe(1)
        assert streams.observe(2)

    def test_interleaved_streams_both_detected(self):
        """Two readers scanning different regions in lockstep — the
        scalar last-fault-index heuristic saw 0, 100, 1, 101, ... as
        fully random; the stream table keeps one head per reader."""
        streams = StreamTable()
        assert not streams.observe(0)
        assert not streams.observe(100)
        for step in range(1, 5):
            assert streams.observe(step)
            assert streams.observe(100 + step)

    def test_capacity_evicts_oldest_stream(self):
        streams = StreamTable(capacity=2)
        streams.observe(0)
        streams.observe(100)
        streams.observe(200)  # table full: the stream at head 0 is evicted
        assert not streams.observe(1)  # its continuation no longer matches
        assert streams.observe(201)  # a younger stream survives

    def test_advance_head_after_prefetch(self):
        streams = StreamTable()
        streams.observe(0)
        streams.observe(1)
        streams.advance_head(8)  # pages 2..8 were prefetched
        assert streams.observe(9)

    def test_reset_forgets_everything(self):
        streams = StreamTable()
        streams.observe(0)
        streams.reset()
        assert not streams.observe(1)


# --------------------------------------------------------------------------
# Write-back calls that carry runs
# --------------------------------------------------------------------------
class TestBatchedWriteBackOrder:
    def _cache(self, node):
        pager = RecordingPager(node.create_domain("p"))
        cache = VmCache(node.vmm, "t")
        cache.channel = types.SimpleNamespace(pager_object=pager)
        return cache, pager

    def test_batched_sync_one_call_per_run_ascending(self, node):
        cache, pager = self._cache(node)
        for index in (5, 6, 0, 1, 2):  # install out of order
            cache.store.install(index, b"x", RW, dirty=True)
        node.vmm.batch_pageout = True
        assert cache.sync() == 5
        assert pager.log == [
            ("sync", 0, 3 * PAGE_SIZE),
            ("sync", 5 * PAGE_SIZE, 2 * PAGE_SIZE),
        ]
        assert cache.store.dirty_pages() == []

    def test_unbatched_sync_same_ascending_order(self, node):
        """Satellite (f): write-back order is deterministic and identical
        with batching off — per page, ascending."""
        cache, pager = self._cache(node)
        for index in (5, 6, 0, 1, 2):
            cache.store.install(index, b"x", RW, dirty=True)
        node.vmm.batch_pageout = False
        assert cache.sync() == 5
        assert pager.log == [
            ("sync", index * PAGE_SIZE, PAGE_SIZE) for index in (0, 1, 2, 5, 6)
        ]

    def test_batched_flush_pages_out_runs(self, node):
        cache, pager = self._cache(node)
        for index in (0, 1, 3):
            cache.store.install(index, b"x", RW, dirty=True)
        node.vmm.batch_pageout = True
        assert cache.flush() == 3
        assert pager.log == [
            ("page_out", 0, 2 * PAGE_SIZE),
            ("page_out", 3 * PAGE_SIZE, PAGE_SIZE),
        ]
        assert len(cache.store) == 0


# --------------------------------------------------------------------------
# A run's sync through the real 2-layer stack (VMM -> coherency -> disk)
# --------------------------------------------------------------------------
class TestRangedSyncThroughStack:
    def test_runs_travel_the_stack_and_land_on_the_volume(
        self, world, node, device, user
    ):
        stack = create_sfs(node, device)
        payload = incompressible_bytes(4 * PAGE_SIZE, seed=9)
        with user.activate():
            f = stack.top.create_file("v.dat")
            f.write(0, bytes(4 * PAGE_SIZE))
            f.sync()
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.write(0, payload)

            node.vmm.batch_pageout = True
            counters = world.counters
            syncs, nbytes = counters.get("coherency.sync"), counters.get(
                "coherency.sync.bytes"
            )
            mapping.cache.sync()
            # One call for the whole 4-page run.
            assert counters.get("coherency.sync") == syncs + 1
            assert counters.get("coherency.sync.bytes") == nbytes + 4 * PAGE_SIZE

            stack.coherency_layer.batch_pageout = True
            syncs, writes = counters.get("disk.sync"), device.writes
            stack.top.resolve("v.dat").sync()
            # ... and one below, landing as one device transfer.
            assert counters.get("disk.sync") == syncs + 1
            assert device.writes == writes + 1
            stack.top.sync_fs()
        volume = stack.disk_layer.volume
        ino = volume.lookup(volume.sb.root_ino, "v.dat")
        assert volume.read_data(ino, 0, 4 * PAGE_SIZE) == payload


# --------------------------------------------------------------------------
# The O(1) eviction clock
# --------------------------------------------------------------------------
@pytest.fixture
def evict_env(world, node, device, user):
    stack = create_sfs(node, device)
    with user.activate():
        f = stack.top.create_file("data.bin")
        f.write(0, bytes(range(256)) * (16 * PAGE_SIZE // 256))
        f.sync()
    return stack


class TestEvictionClock:
    def test_oldest_installed_clean_page_is_the_victim(
        self, node, evict_env, user
    ):
        node.vmm.capacity_pages = 4
        with user.activate():
            f = evict_env.top.resolve("data.bin")
            mapping = node.vmm.create_address_space("t").map(f, RO)
            for page in range(4):
                mapping.read(page * PAGE_SIZE, 8)
            mapping.read(4 * PAGE_SIZE, 8)
        store = mapping.cache.store
        assert 0 not in store
        assert all(page in store for page in (1, 2, 3, 4))

    def test_dirty_page_outlives_younger_clean_pages(
        self, node, evict_env, user
    ):
        """The clock migrates a dirtied entry to the dirty queue instead
        of evicting it, so the next-oldest clean page goes first."""
        node.vmm.capacity_pages = 4
        with user.activate():
            f = evict_env.top.resolve("data.bin")
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.write(0, b"D")  # page 0: oldest, but dirty
            for page in range(1, 4):
                mapping.read(page * PAGE_SIZE, 8)
            mapping.read(4 * PAGE_SIZE, 8)
        store = mapping.cache.store
        assert store.get(0) is not None and store.get(0).dirty
        assert 1 not in store  # oldest *clean* page was the victim
        assert all(page in store for page in (2, 3, 4))

    def test_faulting_page_is_never_its_own_victim(self, node, evict_env, user):
        node.vmm.capacity_pages = 1
        with user.activate():
            f = evict_env.top.resolve("data.bin")
            mapping = node.vmm.create_address_space("t").map(f, RO)
            mapping.read(0, 8)
            mapping.read(PAGE_SIZE, 8)
        store = mapping.cache.store
        assert 0 not in store and 1 in store
        assert node.vmm.resident_pages() == 1

    def test_resident_counter_tracks_store_exactly(self, node, evict_env, user):
        with user.activate():
            f = evict_env.top.resolve("data.bin")
            mapping = node.vmm.create_address_space("t").map(f, RO)
            for page in range(6):
                mapping.read(page * PAGE_SIZE, 8)
        assert node.vmm.resident_pages() == len(mapping.cache.store) == 6
        mapping.cache.store.clear()
        assert node.vmm.resident_pages() == 0

    def test_stale_queue_entries_are_harmless(self, node, evict_env, user):
        """Dropping pages behind the clock's back (store.clear) leaves
        stale queue entries; reclaim must skip them and keep the bound."""
        with user.activate():
            f = evict_env.top.resolve("data.bin")
            mapping = node.vmm.create_address_space("t").map(f, RO)
            for page in range(6):
                mapping.read(page * PAGE_SIZE, 8)
            mapping.cache.store.clear()
            node.vmm.capacity_pages = 2
            for page in range(6):
                mapping.read(page * PAGE_SIZE, 8)
                assert node.vmm.resident_pages() <= 2


# --------------------------------------------------------------------------
# Read-ahead hint forwarding through stacked layers
# --------------------------------------------------------------------------
class TestReadaheadThroughCompfs:
    def test_ranged_page_in_reaches_the_disk_layer(
        self, world, node, device, user
    ):
        """A cold read through coherent COMPFS issues one ranged page-in
        for the whole compressed image; the coherency layer demands the
        missing run below in one call and the disk layer clusters the
        device reads — far fewer transfers than pages."""
        stack = create_sfs(node, device)
        payload = incompressible_bytes(8 * PAGE_SIZE, seed=3)
        first = CompFs(
            node.create_domain("compfs-a", Credentials("compfs", True)),
            coherent=True,
        )
        first.stack_on(stack.top)
        with user.activate():
            f = first.create_file("big.z")
            f.write(0, payload)
            f.sync()
            stack.top.sync_fs()
        for state in stack.coherency_layer._states.values():
            state.store.clear()
            state.streams.reset()
        second = CompFs(
            node.create_domain("compfs-b", Credentials("compfs", True)),
            coherent=True,
        )
        second.stack_on(stack.top)
        reads_before = device.reads
        counters = world.counters
        calls_before = calls_below(world)
        bytes_before = counters.get("disk.page_in.bytes")
        with user.activate():
            assert second.resolve("big.z").read(0, len(payload)) == payload
        assert counters.get("coherency.page_in_range") >= 1
        # The missing run reaches the disk layer as a run: one call of
        # many pages (a plain sized page-in — no window is set here).
        assert calls_below(world) - calls_before == 1
        assert counters.get("disk.page_in.bytes") - bytes_before > 4 * PAGE_SIZE
        # ~8 pages of incompressible image came in via clustered reads.
        assert device.reads - reads_before < 8


class TestCfsReadaheadOverride:
    def _roundtrip(self, stack, cfs, user):
        with user.activate():
            f = stack.top.create_file("r.dat")
            f.write(0, b"x" * (2 * PAGE_SIZE))
            f.sync()
            local = cfs.interpose(stack.top.resolve("r.dat"))
            assert local.read(0, 16) == b"x" * 16
        return next(iter(cfs._states.values()))

    def test_window_applied_per_cache_not_node_wide(
        self, world, node, device, user
    ):
        stack = create_sfs(node, device)
        cfs = start_cfs(node, readahead_pages=4)
        state = self._roundtrip(stack, cfs, user)
        assert state.mapping.cache.readahead_override == 4
        assert node.vmm.readahead_pages == 0  # global policy untouched

    def test_no_override_by_default(self, world, node, device, user):
        stack = create_sfs(node, device)
        cfs = start_cfs(node)
        state = self._roundtrip(stack, cfs, user)
        assert state.mapping.cache.readahead_override is None
