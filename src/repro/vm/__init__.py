"""Spring virtual memory architecture (paper sec. 3.3).

Memory objects (mappable store, no paging ops), pager/cache objects (the
two ends of a coherency channel), cache-rights objects, the per-source
cache every cache manager keeps, and the per-node VMM.
"""

from repro.vm.cache_object import CacheObject, FsCache
from repro.vm.channel import BindResult, CacheRights, Channel
from repro.vm.memory_object import CacheManager, MemoryObject
from repro.vm.page import CachedPage, PageStore
from repro.vm.pager_base import ChannelRegistry
from repro.vm.pager_object import FsPager, PagerObject
from repro.vm.source_cache import SourceCache
from repro.vm.vmm import AddressSpace, Mapping, VmCache, Vmm, VmmCacheObject

__all__ = [
    "CacheObject",
    "FsCache",
    "BindResult",
    "CacheRights",
    "Channel",
    "CacheManager",
    "MemoryObject",
    "CachedPage",
    "PageStore",
    "ChannelRegistry",
    "FsPager",
    "PagerObject",
    "SourceCache",
    "AddressSpace",
    "Mapping",
    "VmCache",
    "Vmm",
    "VmmCacheObject",
]
