"""Memory objects and cache managers.

A memory object "is an abstraction of store (memory) that can be mapped
into address spaces" (paper sec. 3.3.1).  Crucially — and in contrast to
Mach-style external pagers (paper Table 1) — it carries *no* paging
operations: only length operations and ``bind``.  The separation lets
the implementor of the memory object live somewhere other than the
implementor of the pager object that provides its contents; DFS exploits
exactly this by forwarding local binds to the underlying SFS file.
"""

from __future__ import annotations

import abc

from repro.ipc.object import SpringObject
from repro.types import AccessRights
from repro.vm.channel import BindResult, Channel
from repro.vm.pager_object import PagerObject


class CacheManager(SpringObject, abc.ABC):
    """Anything that can hold cached data for a pager.

    "In general, anybody can implement cache objects.  A VMM is one such
    cache manager; pagers can also act as cache managers to other
    pagers." (paper sec. 4.2)
    """

    @abc.abstractmethod
    def accept_channel(self, pager_object: PagerObject, label: str) -> Channel:
        """Complete channel setup initiated by a pager during ``bind``.

        The cache manager constructs its cache object and cache-rights
        object for this source, assembles the :class:`Channel`, and
        returns it.  The pager keeps the channel so later binds by the
        same cache manager for an equivalent memory object reuse it.
        """


class MemoryObject(SpringObject, abc.ABC):
    """The memory_object interface (paper Appendix B)."""

    @abc.abstractmethod
    def bind(
        self,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        length: int,
    ) -> BindResult:
        """Return a cache_rights object the caller can use to locate a
        pager-cache object connection.

        The cache manager making the call passes itself (the paper passes
        a name identifying it); if no channel exists yet for this memory
        object at that cache manager, the pager calls back
        ``cache_manager.accept_channel`` to exchange pager, cache, and
        cache-rights objects.
        """

    @abc.abstractmethod
    def get_length(self) -> int:
        """Current length of the object in bytes."""

    @abc.abstractmethod
    def set_length(self, length: int) -> None:
        """Truncate or extend the object."""
