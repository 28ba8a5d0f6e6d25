"""Tests for the vectored paging pipeline: dirty-run coalescing, pager
write-back calls that carry whole runs (batched write-back through a
real 2-layer stack, and as a property of every kind of cache manager —
what a failed call leaves behind included), the VMM's O(1) eviction
clock, multi-stream read-ahead detection, and read-ahead hint
forwarding through stacked layers."""

import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import incompressible_bytes
from repro.errors import TransientNetworkError
from repro.fs.base import LayerCache
from repro.fs.cfs import start_cfs
from repro.fs.compfs import CompFs
from repro.fs.cryptfs import CryptCache, xor_block
from repro.fs.sfs import create_sfs
from repro.ipc.domain import Credentials
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.page import PageStore, index_runs
from repro.vm.pager_object import PagerObject
from repro.vm.readahead import STREAMS, StreamTable
from repro.vm.vmm import VmCache
from repro.world import World

from tests.test_demand_runs import calls_below

RO = AccessRights.READ_ONLY
RW = AccessRights.READ_WRITE


def no_fault(index, access):
    raise AssertionError(f"unexpected fault on page {index}")


class RecordingPager(PagerObject):
    """Concrete pager that logs the calls it served; every write-back op
    accepts one page or a whole run.  ``fail_call`` is the ordinal
    (from 0) of the write-back call that raises instead — a bad block,
    a partitioned remote pager; ``data`` keeps what each served
    write-back call carried."""

    def __init__(self, domain) -> None:
        super().__init__(domain)
        self.log = []
        self.data = []
        self.fail_call = None
        self._write_backs = 0

    def page_in(self, offset, size, access):
        self.log.append(("page_in", offset, size))
        return bytes(size)

    def _write_back(self, op, offset, size, data):
        ordinal = self._write_backs
        self._write_backs += 1
        if ordinal == self.fail_call:
            raise TransientNetworkError(f"injected: {op} call {ordinal}")
        assert len(data) == size
        self.log.append((op, offset, size))
        self.data.append(bytes(data))

    def page_out(self, offset, size, data):
        self._write_back("page_out", offset, size, data)

    def write_out(self, offset, size, data):
        self._write_back("write_out", offset, size, data)

    def sync(self, offset, size, data):
        self._write_back("sync", offset, size, data)

    def done_with_pager_object(self):
        pass


# --------------------------------------------------------------------------
# Dirty-run coalescing
# --------------------------------------------------------------------------
def dirty_runs(store):
    """The ``(first, count)`` runs a write-back of ``store`` goes out as."""
    return index_runs([index for index, _ in store.dirty_pages()])


class TestDirtyRuns:
    def test_write_across_page_boundary_is_one_run(self):
        store = PageStore()
        for index in range(3):
            store.install(index, b"", RW)
        store.write(PAGE_SIZE - 50, b"x" * 100, no_fault)  # dirties 0 and 1
        assert dirty_runs(store) == [(0, 2)]

    def test_clean_gap_splits_runs(self):
        store = PageStore()
        for index in range(5):
            store.install(index, b"", RW)
        store.write(0, b"a", no_fault)
        store.write(PAGE_SIZE, b"b", no_fault)
        store.write(3 * PAGE_SIZE, b"c", no_fault)  # page 2 stays clean
        assert dirty_runs(store) == [(0, 2), (3, 1)]

    def test_runs_ascend_regardless_of_write_order(self):
        store = PageStore()
        for index in (7, 2, 3, 8):
            store.install(index, b"", RW)
            store.write(index * PAGE_SIZE, b"d", no_fault)
        assert dirty_runs(store) == [(2, 2), (7, 2)]

    def test_coalesce_runs_empty(self):
        assert dirty_runs(PageStore()) == []

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
        streams = StreamTable()
        for stream in range(STREAMS + 1):  # the last evicts the stream at 0
            streams.observe(100 * stream)
        assert not streams.observe(1)  # its continuation no longer matches
        assert streams.observe(100 * STREAMS + 1)  # a younger one survives

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
def recording_vm_cache(node):
    """``(cache, pager)``: a VMM cache whose channel ends in a
    :class:`RecordingPager`."""
    pager = RecordingPager(node.create_domain("p"))
    cache = VmCache(node.vmm, "t")
    cache.channel = types.SimpleNamespace(pager_object=pager)
    return cache, pager


class TestBatchedWriteBackOrder:
    def test_batched_sync_one_call_per_run_ascending(self, node):
        cache, pager = recording_vm_cache(node)
        for index in (5, 6, 0, 1, 2):  # install out of order
            cache.store.install(index, b"x", RW, dirty=True)
        assert cache.sync() == 5
        assert pager.log == [
            ("sync", 0, 3 * PAGE_SIZE),
            ("sync", 5 * PAGE_SIZE, 2 * PAGE_SIZE),
        ]
        assert cache.store.dirty_pages() == []

    def test_batched_flush_pages_out_runs(self, node):
        cache, pager = recording_vm_cache(node)
        for index in (0, 1, 3):
            cache.store.install(index, b"x", RW, dirty=True)
        assert cache.flush() == 3
        assert pager.log == [
            ("page_out", 0, 2 * PAGE_SIZE),
            ("page_out", 3 * PAGE_SIZE, PAGE_SIZE),
        ]
        assert len(cache.store) == 0

    def test_failed_page_out_leaves_its_victims_evictable(self, node):
        """A pager call that raises during eviction takes nothing: the
        victims it carried (and those not yet sent) are still resident
        and dirty, and go back on the queue — ``reclaim`` finds them
        again once the pager heals, so ``capacity_pages`` stays a
        bound."""
        cache, pager = recording_vm_cache(node)
        vmm = node.vmm
        vmm.capacity_pages = 4
        for index in (0, 1, 3, 4, 6, 7):
            cache.store.install(index, b"x", RW, dirty=True)
        pager.fail_call = 1  # the oldest four go as two runs; the second fails
        with pytest.raises(TransientNetworkError):
            vmm.reclaim(pages_needed=2)
        assert pager.log == [("page_out", 0, 2 * PAGE_SIZE)]
        assert sorted(i for i, _ in cache.store.dirty_pages()) == [3, 4, 6, 7]
        # Healed.  A fault reserving the whole capacity gets it.
        assert vmm.reclaim(pages_needed=4) == 4
        assert vmm.resident_pages() + 4 <= vmm.capacity_pages
        # Every page reached the pager exactly once, the stranded run
        # first: it went back to the front of the queue.
        assert pager.log == [
            ("page_out", first * PAGE_SIZE, 2 * PAGE_SIZE) for first in (0, 3, 6)
        ]


# --------------------------------------------------------------------------
# The one arm: exactly the maximal runs, on every kind of cache manager
# --------------------------------------------------------------------------
PAGES = 12
KEY = b"runs"
#: The refused-channel file ends inside its last page: the run that
#: reaches it is written short, as its usable bytes.
FILE_LENGTH = PAGES * PAGE_SIZE - 100


class _FileOverPager:
    """The plain file interface CRYPTFS falls back to when the layer
    below refuses the channel; a ``write`` lands in the pager's log as
    the ``sync`` it stands for, and fails when that call is to fail."""

    def __init__(self, pager) -> None:
        self.pager = pager

    def get_length(self) -> int:
        return FILE_LENGTH

    def write(self, offset, data) -> None:
        self.pager.sync(offset, len(data), data)


def _layer_cache(world, cls=LayerCache, channel=True):
    """``(cache, pager)``: a layer's cache of one file below — the class
    for real, the layer and its file state as stand-ins — whose channel
    (or, refused, whose file interface) ends in a RecordingPager."""
    pager = RecordingPager(world.create_node("n").create_domain("p"))
    layer = types.SimpleNamespace(
        world=world, readahead_pages=0, key=KEY,
        fs_type=lambda: "layer", ensure_down=lambda state: channel,
    )
    state = types.SimpleNamespace(
        down_channel=types.SimpleNamespace(closed=False, pager_object=pager),
        under_file=_FileOverPager(pager),
    )
    return cls(layer, state), pager


#: kind -> (builder, {what the manager does: the op the pager sees}).
CACHE_KINDS = {
    "vm": (
        lambda world: recording_vm_cache(world.create_node("n")),
        {"sync": "sync", "flush": "page_out"},
    ),
    "layer": (
        _layer_cache,
        {"sync": "sync", "write_out": "write_out", "page_out": "page_out"},
    ),
    "crypt": (
        lambda world: _layer_cache(world, CryptCache),
        {"sync": "sync", "write_out": "write_out", "page_out": "page_out"},
    ),
    "crypt-refused": (
        lambda world: _layer_cache(world, CryptCache, channel=False),
        {"sync": "sync"},
    ),
}


def _maximal_runs(indices):
    """``(first, count)`` of every maximal stretch of consecutive
    indices, ascending — computed apart from the code's own grouper."""
    starts = [i for i in sorted(indices) if i - 1 not in indices]
    ends = [i for i in sorted(indices) if i + 1 not in indices]
    return [(a, b - a + 1) for a, b in zip(starts, ends)]


def _content(index):
    return bytes([index + 1]) * PAGE_SIZE


def _write_back(cache, how):
    """The VMM's cache has a method per way; a layer names the op."""
    if isinstance(cache, VmCache):
        return getattr(cache, how)()
    return cache.write_back(cache.store.dirty_indices(), how)


def _assert_carried(kind, pager, op, runs):
    """The pager served exactly ``runs``, in order, each as one ``op``
    call carrying those pages' contents (ciphertext from CRYPTFS; cut
    to the file's length over the file interface)."""
    sizes = [count * PAGE_SIZE for _, count in runs]
    if kind == "crypt-refused":
        sizes = [
            min(size, FILE_LENGTH - first * PAGE_SIZE)
            for size, (first, _) in zip(sizes, runs)
        ]
    assert pager.log == [
        (op, first * PAGE_SIZE, size) for size, (first, _) in zip(sizes, runs)
    ]
    for carried, (first, count) in zip(pager.data, runs):
        for at in range(count):
            chunk = carried[at * PAGE_SIZE : (at + 1) * PAGE_SIZE]
            if kind.startswith("crypt"):
                chunk = xor_block(chunk, KEY, first + at)
            assert chunk == _content(first + at)[: len(chunk)]


def _assert_still_dirty(store, indices):
    for index in indices:
        page = store.get(index)
        assert page is not None and page.dirty and page.rights is RW
        assert bytes(page.data) == _content(index)
    assert set(indices) <= {index for index, _ in store.dirty_pages()}


class TestWriteBackSendsMaximalRuns:
    @pytest.mark.parametrize("kind", list(CACHE_KINDS))
    @given(
        dirty=st.sets(st.integers(0, PAGES - 1), min_size=1),
        clean=st.sets(st.integers(0, PAGES - 1)),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_call_per_run_and_a_failed_call_settles_nothing_after_it(
        self, kind, dirty, clean, data
    ):
        """``sync`` / ``flush`` / ``write_out`` / ``page_out`` of any
        dirty set: one call per maximal run, ascending, every page in
        exactly one call; a page is settled only after the call that
        carried it returned, so when call k raises the runs before it
        are settled and every page of run k and after is still dirty,
        resident and writable."""
        build, ops = CACHE_KINDS[kind]
        cache, pager = build(World())
        store = cache.store
        how = data.draw(st.sampled_from(sorted(ops)))
        runs = _maximal_runs(dirty)
        fail = data.draw(st.none() | st.integers(0, len(runs) - 1))
        for index in data.draw(st.permutations(sorted(dirty | clean))):
            store.install(index, _content(index), RW, dirty=index in dirty)
        clean = clean - dirty
        pager.fail_call = fail

        if fail is None:
            assert _write_back(cache, how) == len(dirty)
            served = runs
        else:
            with pytest.raises(TransientNetworkError):
                _write_back(cache, how)
            served = runs[:fail]
        _assert_carried(kind, pager, ops[how], served)

        settled = [i for first, count in served for i in range(first, first + count)]
        _assert_still_dirty(store, dirty - set(settled))
        if how == "flush" and fail is None:
            assert len(store) == 0  # a flush that went through drops the rest
            return
        for index in settled:
            page = store.get(index)
            if ops[how] == "page_out":
                assert page is None
            else:
                assert not page.dirty
                assert page.rights is (RO if how == "write_out" else RW)
        for index in clean:
            assert not store.get(index).dirty

    @given(
        order=st.lists(st.integers(0, PAGES - 1), min_size=1, unique=True),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_eviction_pages_out_its_victims_by_run_and_survives_a_failed_call(
        self, order, data
    ):
        """Under ``capacity_pages`` the oldest-installed dirty pages are
        the victims; they go out as the maximal runs among *them*,
        ascending.  When call k raises, the runs before it are gone and
        every other page is still dirty and resident — and still
        evictable: after the pager heals a fault can reserve the whole
        capacity, and every page has reached the pager exactly once."""
        node = World().create_node("n")
        cache, pager = recording_vm_cache(node)
        vmm = node.vmm
        for index in order:
            cache.store.install(index, _content(index), RW, dirty=True)
        vmm.capacity_pages = len(order)
        room = data.draw(st.integers(1, len(order)))
        victims = order[:room]  # FIFO: installation order
        runs = _maximal_runs(set(victims))
        fail = data.draw(st.none() | st.integers(0, len(runs) - 1))
        pager.fail_call = fail

        if fail is None:
            assert vmm.reclaim(pages_needed=room) == room
            served = runs
        else:
            with pytest.raises(TransientNetworkError):
                vmm.reclaim(pages_needed=room)
            served = runs[:fail]
        _assert_carried("vm", pager, "page_out", served)
        gone = {i for first, count in served for i in range(first, first + count)}
        assert all(index not in cache.store for index in gone)
        _assert_still_dirty(cache.store, set(order) - gone)
        assert vmm.resident_pages() == len(order) - len(gone)

        pager.fail_call = None
        vmm.reclaim(pages_needed=vmm.capacity_pages)
        assert vmm.resident_pages() == 0
        paged_out = [
            offset // PAGE_SIZE + at
            for _, offset, size in pager.log for at in range(size // PAGE_SIZE)
        ]
        assert sorted(paged_out) == sorted(order)


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

            counters = world.counters
            syncs, nbytes = counters.get("coherency.sync"), counters.get(
                "coherency.sync.bytes"
            )
            mapping.cache.sync()
            # One call for the whole 4-page run.
            assert counters.get("coherency.sync") == syncs + 1
            assert counters.get("coherency.sync.bytes") == nbytes + 4 * PAGE_SIZE

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
        cfs = start_cfs(node)
        cfs.readahead_pages = 4
        state = self._roundtrip(stack, cfs, user)
        assert state.mapping.cache.readahead_override == 4
        assert node.vmm.readahead_pages == 0  # global policy untouched

    def test_no_override_by_default(self, world, node, device, user):
        stack = create_sfs(node, device)
        cfs = start_cfs(node)
        state = self._roundtrip(stack, cfs, user)
        assert state.mapping.cache.readahead_override is None
