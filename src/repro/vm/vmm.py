"""The per-node virtual memory manager.

"A per-node virtual memory manager (VMM) is responsible for handling
mapping, sharing, and caching of local memory.  The VMM depends on
external pagers for accessing backing store and maintaining
inter-machine coherency." (paper sec. 3.3.1)

The VMM is a cache manager (it implements cache objects).  When asked to
map a memory object it calls ``bind`` on it; the returned cache-rights
object locates the per-source :class:`VmCache`, so equivalent memory
objects — and binds forwarded by layers like DFS — share cached pages.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ChannelClosedError, OutOfRangeError, VmError
from repro.ipc.invocation import operation
from repro.ipc.object import SpringObject
from repro.types import AccessRights
from repro.vm.cache_object import CacheObject
from repro.vm.channel import CacheRights, Channel
from repro.vm.memory_object import CacheManager, MemoryObject
from repro.vm.page import CachedPage
from repro.vm.pager_object import PagerObject
from repro.vm.source_cache import SourceCache


class VmCache(SourceCache):
    """The VMM's cached pages for one bound source (one cache-rights
    object).  Several mappings — from any number of address spaces — may
    share one VmCache; that sharing is local coherency.

    Faulting, read-ahead and write-back are the shared
    :class:`~repro.vm.source_cache.SourceCache`; what the VMM adds is
    the ``vm_fault`` charge, the residency bound (``capacity_pages``:
    room is reserved before a fetch and no speculative page is installed
    past it) and the observer hooks that feed the eviction queues."""

    __slots__ = ("label", "channel", "destroyed", "mappings")

    def __init__(self, vmm: "Vmm", channel_label: str) -> None:
        super().__init__(vmm, "vmm", observer=self)
        self.label = channel_label
        self.channel: Optional[Channel] = None
        self.destroyed = False
        self.mappings = 0

    def pager(self) -> PagerObject:
        if self.destroyed:
            raise ChannelClosedError(f"cache for {self.label!r} was destroyed")
        return self.channel.pager_object

    def full(self) -> bool:
        capacity = self.manager.capacity_pages
        return capacity is not None and self.manager.resident_pages() >= capacity

    # --- PageStore observer (incremental residency accounting) ---------------
    def page_installed(self, index: int, page: CachedPage) -> None:
        self.manager._page_installed(self, index, page)

    def page_dropped(self, index: int, page: CachedPage) -> None:
        self.manager._page_dropped(self, index)

    def before_fetch(self, index: int, pages: int) -> None:
        """The VMM's own work on a page fault: charge it, and reserve
        room for the whole window, not just the faulting page —
        otherwise a prefetch overshoots ``capacity_pages``."""
        world = self.world
        world.charge.vm_fault()
        world.counters.inc("vmm.fault")
        vmm = self.manager
        if vmm.capacity_pages is not None:
            vmm.reclaim(
                pages_needed=min(pages, vmm.capacity_pages),
                protect=(self, index),
            )

    # --- write-back ------------------------------------------------------------
    def sync(self) -> int:
        """Push dirty pages to the pager, retaining them in the same
        mode.  Returns the number of pages written.

        Write-back order is deterministic — dirty pages ascend by
        index, every contiguous run in one call.  Benchmarks rely on this
        determinism for stable virtual time.
        """
        return self.write_back(self.store.dirty_indices(), "sync")

    def flush(self) -> int:
        """Push dirty pages and drop everything (page_out semantics).
        Like :meth:`sync`, ascending, every run in one call."""
        count = self.write_back(self.store.dirty_indices(), "page_out")
        self.store.clear()
        return count


class VmmCacheObject(CacheObject):
    """The VMM's end of one pager-cache channel (paper Appendix A ops
    applied to the corresponding :class:`VmCache`)."""

    def __init__(self, domain, cache: VmCache) -> None:
        super().__init__(domain)
        self.cache = cache

    @operation
    def flush_back(self, offset: int, size: int) -> Dict[int, bytes]:
        modified = self.cache.store.collect_modified(offset, size)
        self.cache.store.drop_range(offset, size)
        self.world.counters.inc("vmm.flush_back")
        return modified

    @operation
    def deny_writes(self, offset: int, size: int) -> Dict[int, bytes]:
        modified = self.cache.store.collect_modified(offset, size)
        self.cache.store.downgrade_range(offset, size)
        self.cache.store.clean_range(offset, size)
        self.world.counters.inc("vmm.deny_writes")
        return modified

    @operation
    def write_back(self, offset: int, size: int) -> Dict[int, bytes]:
        modified = self.cache.store.collect_modified(offset, size)
        self.cache.store.clean_range(offset, size)
        self.world.counters.inc("vmm.write_back")
        return modified

    @operation
    def delete_range(self, offset: int, size: int) -> None:
        self.cache.store.drop_range(offset, size)
        self.world.counters.inc("vmm.delete_range")

    @operation
    def zero_fill(self, offset: int, size: int) -> None:
        self.cache.store.zero_range(offset, size)
        self.world.counters.inc("vmm.zero_fill")

    @operation
    def populate(
        self, offset: int, size: int, access: AccessRights, data: bytes
    ) -> None:
        self.cache.store.populate(offset, size, data, access)
        self.world.counters.inc("vmm.populate")

    @operation
    def destroy_cache(self) -> None:
        self.cache.store.clear()
        self.cache.destroyed = True
        self.world.counters.inc("vmm.destroy_cache")

    @operation
    def held_blocks(self) -> Dict[int, Tuple[bool, bool]]:
        """Re-declare this VMM's resident pages to a recovering pager
        (see :meth:`repro.vm.cache_object.CacheObject.held_blocks`)."""
        self.world.counters.inc("vmm.held_blocks")
        return self.cache.store.held_blocks()


@dataclasses.dataclass(slots=True)
class Mapping:
    """A memory object mapped into an address space.

    ``read``/``write`` simulate user loads and stores: they touch the
    shared :class:`VmCache` directly (no invocation), faulting missing or
    insufficient pages from the pager.

    ``read`` has mapped-memory semantics: like a load from a mapped
    page, the result may be a read-only :class:`memoryview` aliasing the
    shared cache, valid until the page is next written or evicted.
    Callers that retain the data (or hand it across an API whose
    contract is immutable ``bytes``, like ``File.read``) must copy —
    see DESIGN.md section 7.
    """

    address_space: "AddressSpace"
    cache: VmCache
    object_offset: int
    length: int
    access: AccessRights
    unmapped: bool = False
    # Per-access dispatch targets, resolved once at map time: the fault
    # handler, store accessors, and memcpy charger are invariant for the
    # mapping's lifetime, so reads skip the attribute chains entirely.
    _read_bytes: object = dataclasses.field(init=False, repr=False, default=None)
    _store_write: object = dataclasses.field(init=False, repr=False, default=None)
    _fault: object = dataclasses.field(init=False, repr=False, default=None)
    _memcpy: object = dataclasses.field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        store = self.cache.store
        self._read_bytes = store.read_bytes
        self._store_write = store.write
        self._fault = self.cache.fault
        self._memcpy = self.cache.world.charge.memcpy

    def _check(self, offset: int, size: int, write: bool) -> None:
        if self.unmapped:
            raise VmError("access through unmapped mapping")
        if write and not self.access.writable:
            raise VmError("write through read-only mapping")
        if offset < 0 or size < 0 or offset + size > self.length:
            raise OutOfRangeError(
                f"[{offset}, {offset + size}) outside mapping of {self.length}"
            )

    def read(self, offset: int, size: int):
        if self.unmapped or offset < 0 or size < 0 or offset + size > self.length:
            self._check(offset, size, write=False)
        data = self._read_bytes(self.object_offset + offset, size, self._fault)
        self._memcpy(size)
        return data

    def read_copy(self, offset: int, size: int) -> bytes:
        """Like :meth:`read` but always an immutable ``bytes`` copy —
        the retain-safe variant."""
        return bytes(self.read(offset, size))

    def write(self, offset: int, data: bytes) -> None:
        size = len(data)
        if (
            self.unmapped
            or not self.access.writable
            or offset < 0
            or offset + size > self.length
        ):
            self._check(offset, size, write=True)
        self._store_write(self.object_offset + offset, data, self._fault)
        self._memcpy(size)


class AddressSpace(SpringObject):
    """An address space object, implemented by the VMM (paper 3.3.1)."""

    def __init__(self, vmm: "Vmm", owner_name: str) -> None:
        super().__init__(vmm.domain)
        self.vmm = vmm
        self.owner_name = owner_name
        self.mappings: List[Mapping] = []

    @operation
    def map(
        self,
        memory_object: MemoryObject,
        access: AccessRights,
        offset: int = 0,
        length: Optional[int] = None,
    ) -> Mapping:
        """Map ``memory_object`` into this address space.

        The VMM binds to the memory object; the returned cache-rights
        object selects (or creates) the shared :class:`VmCache`.
        """
        if length is None:
            length = memory_object.get_length() - offset
        if length < 0:
            raise OutOfRangeError("negative mapping length")
        cache = self.vmm.bind_to(memory_object, access, offset, length)
        mapping = Mapping(self, cache, offset, length, access)
        cache.mappings += 1
        self.mappings.append(mapping)
        return mapping

    @operation
    def unmap(self, mapping: Mapping) -> None:
        if mapping.unmapped:
            return
        mapping.unmapped = True
        mapping.cache.mappings -= 1
        self.mappings.remove(mapping)


class Vmm(CacheManager):
    """The per-node VMM: address spaces, mapping, and local page caching."""

    def __init__(self, nucleus_domain) -> None:
        super().__init__(nucleus_domain)
        self._caches_by_rights: Dict[int, VmCache] = {}
        #: Read-ahead window (pages) for sequential fault streams; 0
        #: disables it (the default — it is the paper's sec. 8 extension
        #: and is ablated separately from the Table 2 reproduction).
        self.readahead_pages = 0
        #: Physical-memory bound in pages (None = unlimited).  When
        #: faults would exceed it, the VMM reclaims: clean pages are
        #: dropped, dirty pages written out through their pagers.
        self.capacity_pages: Optional[int] = None
        #: Resident pages across all caches, maintained incrementally by
        #: the PageStore observer hooks (never recomputed by scanning).
        self._resident = 0
        #: Eviction clock: FIFO queues of (cache, index) in installation
        #: order, clean candidates separate from dirty ones.  Entries
        #: are validated lazily on pop (see :meth:`reclaim`); the set
        #: tracks which (cache, index) pairs are genuinely resident so
        #: stale queue entries can be recognized in O(1).
        self._clean_q: Deque[Tuple[VmCache, int]] = collections.deque()
        self._dirty_q: Deque[Tuple[VmCache, int]] = collections.deque()
        self._queued: Set[Tuple[VmCache, int]] = set()

    # --- residency accounting (PageStore observer plumbing) -------------------
    def _page_installed(self, cache: VmCache, index: int, page: CachedPage) -> None:
        self._resident += 1
        key = (cache, index)
        if key not in self._queued:
            self._queued.add(key)
            (self._dirty_q if page.dirty else self._clean_q).append(key)

    def _page_dropped(self, cache: VmCache, index: int) -> None:
        self._resident -= 1
        # The queue entry (if any) goes stale; reclaim discards it on pop.
        self._queued.discard((cache, index))

    # --- cache-manager side of channel setup ----------------------------------
    @operation
    def accept_channel(self, pager_object: PagerObject, label: str) -> Channel:
        cache = VmCache(self, label)
        cache_object = VmmCacheObject(self.domain, cache)
        rights = CacheRights(self.domain, label)
        channel = Channel(pager_object, cache_object, rights, label)
        rights.channel = channel
        cache.channel = channel
        self._caches_by_rights[rights.oid] = cache
        self.world.counters.inc("vmm.channel_created")
        return channel

    # --- mapping support --------------------------------------------------------
    def bind_to(
        self,
        memory_object: MemoryObject,
        access: AccessRights,
        offset: int,
        length: int,
    ) -> VmCache:
        """Bind to a memory object and return the VmCache its cache-rights
        object designates."""
        self.world.charge.bind()
        result = memory_object.bind(self, access, offset, length)
        cache = self._caches_by_rights.get(result.rights.oid)
        if cache is None:
            raise VmError(
                "bind returned cache_rights from a different cache manager"
            )
        cache.pager()  # raises if the cache was destroyed
        return cache

    @operation
    def create_address_space(self, owner_name: str) -> AddressSpace:
        return AddressSpace(self, owner_name)

    # --- maintenance ----------------------------------------------------------
    def sync_all(self) -> int:
        """Write back all dirty pages in all caches (shutdown/test aid).

        Deterministic order: caches in creation (bind) order, and within
        each cache :meth:`VmCache.sync`'s ascending page order — the
        run-coalescing rewrite preserves both, so repeated runs charge
        identical virtual time."""
        return sum(cache.sync() for cache in self.live_caches())

    def reclaim(
        self,
        pages_needed: int = 1,
        protect: Optional[tuple] = None,
    ) -> int:
        """Free pages until ``pages_needed`` fit under capacity_pages.

        Victims come from the two FIFO eviction queues maintained by the
        PageStore observer hooks — clean pages first (dropped for free),
        then dirty pages (paged out, one call per cache).  The queues are
        validated lazily (:meth:`_pop_victims`); each entry is touched
        at most a constant number of times over its lifetime, so
        eviction is amortized O(1) per fault, not a walk over every
        resident page of every cache.

        ``protect`` is an optional ``(cache, page_index)`` the current
        fault is about to install — never chosen as a victim (requeued
        at the tail).  Returns the number of pages evicted.
        """
        if self.capacity_pages is None:
            return 0
        target = self.capacity_pages - pages_needed
        evicted = 0

        # Pass 1: drop clean pages, oldest-installed first.
        if self._resident > target:
            for cache, index in self._pop_victims(False, protect):
                cache.store.drop(index)  # observer updates _resident/_queued
                evicted += 1
                if self._resident <= target:
                    break

        # Pass 2: page out dirty pages.
        if self._resident > target:
            victims: List[Tuple[VmCache, int]] = []
            for key in self._pop_victims(True, protect):
                victims.append(key)
                if self._resident - len(victims) <= target:
                    break
            evicted += self._evict_dirty(victims)

        self.world.counters.inc("vmm.evicted", evicted)
        return evicted

    def _pop_victims(self, dirty: bool, protect: Optional[tuple]):
        """Pop entries off the dirty (else the clean) eviction queue,
        oldest first, yielding the ``(cache, index)`` of each that still
        names a resident page of that kind.  This is the lazy
        validation: an entry whose page was dropped since enqueue is
        discarded, one whose page changed dirtiness migrates to the
        other queue, and ``protect`` goes back to the tail."""
        queue, other = self._clean_q, self._dirty_q
        if dirty:
            queue, other = other, queue
        budget = len(queue) + 2  # slack: protect may be requeued once
        while budget > 0 and queue:
            budget -= 1
            key = queue.popleft()
            if key not in self._queued:
                continue  # stale: dropped since enqueue
            cache, index = key
            page = cache.store.get(index)
            if page is None or cache.destroyed:
                self._queued.discard(key)
            elif key == protect:
                queue.append(key)
            elif page.dirty != dirty:
                other.append(key)  # dirtied or cleaned since enqueue
            else:
                yield key

    def _evict_dirty(self, victims: List[Tuple[VmCache, int]]) -> int:
        """Page out and drop the chosen dirty victims: each cache's
        victims together, ascending, in one call, contiguous ones as one
        run.  The victims are off the queue; if a pager call raises,
        those it did not take are still resident and dirty and go back
        to the front, order kept, for a later reclaim to choose."""
        by_cache: Dict[VmCache, List[int]] = {}
        for cache, index in victims:
            by_cache.setdefault(cache, []).append(index)
        try:
            for cache, indices in by_cache.items():
                cache.write_back(sorted(indices), "page_out")
        except Exception:
            self._dirty_q.extendleft(
                key for key in reversed(victims) if key in self._queued
            )
            raise
        return len(victims)

    def live_caches(self) -> List[VmCache]:
        return [c for c in self._caches_by_rights.values() if not c.destroyed]

    def resident_pages(self) -> int:
        """Resident pages across all caches — an O(1) read of the
        incrementally maintained counter."""
        return self._resident
