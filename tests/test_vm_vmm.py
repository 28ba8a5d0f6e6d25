"""Unit tests for the VMM: binding, shared caches, mappings, faults,
write-back, and the VMM's cache-object coherency operations.

Uses a scripted in-test pager so the VM layer is exercised in isolation
from the file system layers.
"""

import pytest

from repro.errors import ChannelClosedError, OutOfRangeError, VmError
from repro.ipc.invocation import operation
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.channel import BindResult
from repro.vm.memory_object import CacheManager, MemoryObject
from repro.vm.pager_base import ChannelRegistry
from repro.vm.pager_object import PagerObject

RO = AccessRights.READ_ONLY
RW = AccessRights.READ_WRITE


class ScriptedPager(PagerObject):
    """A pager over an in-memory bytearray, with call logging: a
    write-back logs its op and the ``(offset, size)`` of every run."""

    def __init__(self, domain, backing: bytearray, log: list) -> None:
        super().__init__(domain)
        self.backing = backing
        self.log = log

    @operation
    def page_in(self, offset, size, access):
        self.log.append(("page_in", offset, size, access))
        return bytes(self.backing[offset : offset + size])

    @operation
    def page_out(self, runs):
        self._apply("page_out", runs)

    @operation
    def write_out(self, runs):
        self._apply("write_out", runs)

    @operation
    def sync(self, runs):
        self._apply("sync", runs)

    def _apply(self, op, runs):
        self.log.append((op, [(offset, size) for offset, size, _ in runs]))
        for offset, size, data in runs:
            end = offset + min(size, len(data))
            if end > len(self.backing):
                self.backing.extend(bytes(end - len(self.backing)))
            self.backing[offset:end] = data[: end - offset]

    @operation
    def done_with_pager_object(self):
        self.log.append(("done",))


class ScriptedMemoryObject(MemoryObject):
    """Memory object whose pager is a ScriptedPager, with proper channel
    reuse semantics via ChannelRegistry."""

    registry_by_source = {}

    def __init__(self, domain, source_key: str, backing: bytearray, log: list):
        super().__init__(domain)
        self.source_key = source_key
        self.backing = backing
        self.log = log
        self.registry = ScriptedMemoryObject.registry_by_source.setdefault(
            source_key, ChannelRegistry()
        )

    @operation
    def bind(self, cache_manager, requested_access, offset, length):
        channel, _ = self.registry.get_or_create(
            self.source_key,
            cache_manager,
            lambda: ScriptedPager(self.domain, self.backing, self.log),
            self.source_key,
        )
        return BindResult(channel.cache_rights, offset)

    @operation
    def get_length(self):
        return len(self.backing)

    @operation
    def set_length(self, length):
        del self.backing[length:]


@pytest.fixture(autouse=True)
def _clean_registry():
    ScriptedMemoryObject.registry_by_source = {}
    yield


@pytest.fixture
def pager_env(world, node):
    log = []
    backing = bytearray(b"P" * (4 * PAGE_SIZE))
    server = node.create_domain("pager-server")
    memobj = ScriptedMemoryObject(server, "src1", backing, log)
    return memobj, backing, log


class TestMappingBasics:
    def test_map_and_read(self, node, pager_env):
        memobj, backing, log = pager_env
        aspace = node.vmm.create_address_space("t")
        mapping = aspace.map(memobj, RO)
        assert mapping.read(0, 4) == b"PPPP"
        assert log[0][0] == "page_in"

    def test_faults_only_once_per_page(self, node, pager_env):
        memobj, _, log = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RO)
        mapping.read(0, 10)
        mapping.read(5, 10)
        mapping.read(100, 10)
        assert len([e for e in log if e[0] == "page_in"]) == 1

    def test_read_spanning_pages_faults_each(self, node, pager_env):
        memobj, _, log = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RO)
        mapping.read(PAGE_SIZE - 10, 20)
        assert len([e for e in log if e[0] == "page_in"]) == 2

    def test_a_pager_that_cannot_cluster_serves_a_ranged_fault_exactly(
        self, world, node, pager_env
    ):
        """A fault that continues a sequential stream asks for its
        read-ahead window; a pager with no ``page_in_range`` of its own
        answers with exactly the faulting page, so nothing is installed
        speculatively."""
        memobj, _, log = pager_env
        node.vmm.readahead_pages = 2
        mapping = node.vmm.create_address_space("t").map(memobj, RO)
        mapping.read(0, 4)
        mapping.read(PAGE_SIZE, 4)  # continues the stream: a ranged fault
        assert world.counters.get("vmm.readahead") == 1
        assert log[-1] == ("page_in", PAGE_SIZE, PAGE_SIZE, RO)
        assert 2 not in mapping.cache.store

    def test_write_requires_writable_mapping(self, node, pager_env):
        memobj, _, _ = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RO)
        with pytest.raises(VmError):
            mapping.write(0, b"nope")

    def test_write_faults_rw(self, node, pager_env):
        memobj, _, log = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RW)
        mapping.write(0, b"LOCAL")
        assert ("page_in", 0, PAGE_SIZE, RW) in log
        assert mapping.read(0, 5) == b"LOCAL"

    def test_ro_then_rw_upgrade_refaults(self, node, pager_env):
        memobj, _, log = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RW)
        mapping.read(0, 4)
        mapping.write(0, b"W")
        accesses = [e[3] for e in log if e[0] == "page_in"]
        assert accesses == [RO, RW]

    def test_out_of_range_access_rejected(self, node, pager_env):
        memobj, _, _ = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RO, 0, PAGE_SIZE)
        with pytest.raises(OutOfRangeError):
            mapping.read(PAGE_SIZE - 2, 10)

    def test_unmap_blocks_access(self, node, pager_env):
        memobj, _, _ = pager_env
        aspace = node.vmm.create_address_space("t")
        mapping = aspace.map(memobj, RO)
        aspace.unmap(mapping)
        with pytest.raises(VmError):
            mapping.read(0, 1)

    def test_partial_mapping_offset(self, node, pager_env):
        memobj, backing, _ = pager_env
        backing[PAGE_SIZE : PAGE_SIZE + 4] = b"HERE"
        mapping = node.vmm.create_address_space("t").map(
            memobj, RO, offset=PAGE_SIZE, length=PAGE_SIZE
        )
        assert mapping.read(0, 4) == b"HERE"


class TestSharedCaching:
    def test_equivalent_objects_share_cache(self, world, node, pager_env):
        """Two memory objects for the same source -> same cache_rights ->
        same VmCache (paper sec. 3.3.2)."""
        memobj, backing, log = pager_env
        twin = ScriptedMemoryObject(memobj.domain, "src1", backing, log)
        aspace = node.vmm.create_address_space("t")
        m1 = aspace.map(memobj, RW)
        m2 = aspace.map(twin, RW)
        assert m1.cache is m2.cache
        m1.write(0, b"SHARED")
        assert m2.read(0, 6) == b"SHARED"
        assert len([e for e in log if e[0] == "page_in"]) == 1

    def test_distinct_sources_do_not_share(self, world, node):
        log = []
        a = ScriptedMemoryObject(
            node.create_domain("pa"), "a", bytearray(PAGE_SIZE), log
        )
        b = ScriptedMemoryObject(
            node.create_domain("pb"), "b", bytearray(PAGE_SIZE), log
        )
        aspace = node.vmm.create_address_space("t")
        assert aspace.map(a, RO).cache is not aspace.map(b, RO).cache

    def test_channel_reused_across_binds(self, world, node, pager_env):
        memobj, _, _ = pager_env
        aspace = node.vmm.create_address_space("t")
        aspace.map(memobj, RO)
        aspace.map(memobj, RO)
        assert world.counters.get("vmm.channel_created") == 1


class TestWriteBack:
    def test_sync_pushes_dirty_pages(self, node, pager_env):
        memobj, backing, log = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RW)
        mapping.write(0, b"DIRTY")
        assert bytes(backing[:5]) == b"PPPPP"
        assert mapping.cache.sync() == 1
        assert bytes(backing[:5]) == b"DIRTY"
        assert mapping.cache.sync() == 0  # clean now

    def test_a_sync_is_one_call_carrying_every_run(self, node, pager_env):
        memobj, backing, log = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RW)
        for page in (3, 0, 1):
            mapping.write(page * PAGE_SIZE, b"RUN")
        assert mapping.cache.sync() == 3
        assert log[-1] == ("sync", [(0, 2 * PAGE_SIZE), (3 * PAGE_SIZE, PAGE_SIZE)])
        assert [e[0] for e in log].count("sync") == 1
        assert bytes(backing[3 * PAGE_SIZE : 3 * PAGE_SIZE + 3]) == b"RUN"

    def test_flush_pages_out_and_drops(self, node, pager_env):
        memobj, backing, log = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RW)
        mapping.write(0, b"GONE")
        assert mapping.cache.flush() == 1
        assert len(mapping.cache.store) == 0
        assert bytes(backing[:4]) == b"GONE"

    def test_vmm_sync_all(self, node, pager_env):
        memobj, backing, _ = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RW)
        mapping.write(10, b"ALL")
        assert node.vmm.sync_all() == 1
        assert bytes(backing[10:13]) == b"ALL"


    def test_write_out_keeps_a_clean_read_only_copy(self, node, pager_env):
        memobj, backing, log = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RW)
        mapping.write(PAGE_SIZE, b"KEPT")
        cache = mapping.cache
        assert cache.write_back(cache.store.dirty_indices(), "write_out") == 1
        assert ("write_out", [(PAGE_SIZE, PAGE_SIZE)]) in log
        page = cache.store.get(1)
        assert not page.dirty and page.rights is RO
        assert bytes(backing[PAGE_SIZE : PAGE_SIZE + 4]) == b"KEPT"
        # The retained copy is read-only: the next store re-faults it.
        mapping.write(PAGE_SIZE, b"AGAIN")
        assert log[-1] == ("page_in", PAGE_SIZE, PAGE_SIZE, RW)

    def test_failed_write_back_leaves_the_page_dirty_and_resident(
        self, node, pager_env
    ):
        """The pages are settled only after the call that carried them
        returned: a flush whose pager fails midway through its runs
        loses nothing, and settles nothing."""
        memobj, backing, log = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RW)
        mapping.write(0, b"ONE")
        mapping.write(2 * PAGE_SIZE, b"TWO")
        cache = mapping.cache
        pager = cache.channel.pager_object

        def refuse_second_run(runs):
            pager._apply("page_out", runs[:1])
            raise ChannelClosedError("pager went away")

        pager.page_out = refuse_second_run
        with pytest.raises(ChannelClosedError):
            cache.flush()
        assert log[-1] == ("page_out", [(0, PAGE_SIZE)])  # the one run served
        assert cache.store.get(0).dirty and cache.store.get(2).dirty
        del pager.page_out
        assert cache.flush() == 2
        assert log[-1] == ("page_out", [(0, PAGE_SIZE), (2 * PAGE_SIZE, PAGE_SIZE)])
        assert bytes(backing[:3]) == b"ONE"
        assert bytes(backing[2 * PAGE_SIZE : 2 * PAGE_SIZE + 3]) == b"TWO"


class TestVmmCacheObject:
    """The pager-driven coherency operations against the VMM's cache."""

    @pytest.fixture
    def bound(self, node, pager_env):
        memobj, backing, log = pager_env
        mapping = node.vmm.create_address_space("t").map(memobj, RW)
        mapping.write(0, b"MODIFIED")
        cache_obj = mapping.cache.channel.cache_object
        return mapping, cache_obj, backing

    def test_flush_back_returns_modified_and_drops(self, bound):
        mapping, cache_obj, _ = bound
        modified = cache_obj.flush_back(0, PAGE_SIZE)
        assert modified[0][:8] == b"MODIFIED"
        assert len(mapping.cache.store) == 0

    def test_deny_writes_downgrades(self, bound):
        mapping, cache_obj, _ = bound
        modified = cache_obj.deny_writes(0, PAGE_SIZE)
        assert modified[0][:8] == b"MODIFIED"
        page = mapping.cache.store.get(0)
        assert page.rights is RO and not page.dirty

    def test_write_back_keeps_mode(self, bound):
        mapping, cache_obj, _ = bound
        modified = cache_obj.write_back(0, PAGE_SIZE)
        assert modified[0][:8] == b"MODIFIED"
        page = mapping.cache.store.get(0)
        assert page.rights is RW and not page.dirty

    def test_clean_cache_returns_nothing(self, bound):
        mapping, cache_obj, _ = bound
        cache_obj.write_back(0, PAGE_SIZE)
        assert cache_obj.write_back(0, PAGE_SIZE) == {}

    def test_delete_range(self, bound):
        mapping, cache_obj, _ = bound
        cache_obj.delete_range(0, PAGE_SIZE)
        assert len(mapping.cache.store) == 0

    def test_zero_fill(self, bound):
        mapping, cache_obj, _ = bound
        cache_obj.zero_fill(0, PAGE_SIZE)
        assert mapping.read(0, 8) == bytes(8)

    def test_populate(self, bound):
        mapping, cache_obj, _ = bound
        cache_obj.populate(0, PAGE_SIZE, RO, b"PUSHED" + bytes(PAGE_SIZE - 6))
        assert mapping.read(0, 6) == b"PUSHED"

    def test_unaligned_populate_refused(self, bound):
        mapping, cache_obj, _ = bound
        before = mapping.read(0, PAGE_SIZE)
        with pytest.raises(OutOfRangeError):
            cache_obj.populate(100, 10, RO, b"x" * 10)
        assert mapping.read(0, PAGE_SIZE) == before

    def test_destroy_cache_kills_mapping(self, bound):
        mapping, cache_obj, _ = bound
        cache_obj.destroy_cache()
        with pytest.raises(ChannelClosedError):
            mapping.read(PAGE_SIZE, 1)  # forces a fault on the dead cache
