"""Pager object interfaces (paper Appendix B).

Pager objects are implemented by data providers ("pagers") and invoked by
cache managers.  :class:`FsPager` is the file-system subclass that adds
attribute paging (paper sec. 4.3): rather than burden the data-movement
interface with file operations, file systems *narrow* the pager object
they receive to ``fs_pager`` — if the narrow fails they know they are
talking to a plain storage pager.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, List, Tuple

from repro.ipc.object import SpringObject
from repro.types import AccessRights

if TYPE_CHECKING:
    from repro.fs.attributes import FileAttributes

#: What one write-back carries: every run a cache manager pushes at once,
#: each ``(offset, size, data)`` — ascending, no page in two runs.
Runs = List[Tuple[int, int, bytes]]


class PagerObject(SpringObject, abc.ABC):
    """One pager's end of a pager-cache channel for one memory object.

    ``size`` is a whole number of pages in every data operation.  A
    write-back (``page_out`` / ``write_out`` / ``sync``) carries a list of
    :data:`Runs`, so a cache manager pushes every dirty run it holds in
    one invocation, and the disk layer can cluster each run's device
    write.  Whether adjacent pages are coalesced into one run is the
    caller's policy."""

    @abc.abstractmethod
    def page_in(self, offset: int, size: int, access: AccessRights) -> bytes:
        """Request data in read-only or read-write mode.

        Granting READ_WRITE obliges the pager to perform whatever
        coherency actions its protocol requires against other caches.
        """

    def page_in_range(
        self, offset: int, min_size: int, max_size: int, access: AccessRights
    ) -> bytes:
        """Ranged page-in (paper sec. 8's read-ahead extension): "allows
        a cache manager to convey to the pager the maximum and minimum
        amount of data required during a page-in.  The pager is then
        given the opportunity to return more data than strictly needed."

        The default returns exactly the minimum; pagers that can cluster
        (the disk layer) or that cache (the coherency layer) override it.
        """
        return self.page_in(offset, min_size, access)

    @abc.abstractmethod
    def page_out(self, runs: Runs) -> None:
        """Write the runs to the pager; the caller no longer retains them."""

    @abc.abstractmethod
    def write_out(self, runs: Runs) -> None:
        """Write the runs to the pager; the caller retains them read-only."""

    @abc.abstractmethod
    def sync(self, runs: Runs) -> None:
        """Write the runs to the pager; the caller retains them in the
        same mode it held before the call."""

    @abc.abstractmethod
    def done_with_pager_object(self) -> None:
        """The cache manager is closing its end of the channel."""


class FsPager(PagerObject):
    """Pager object subclass exported by file systems.

    Adds the attribute-coherency building blocks: cache managers that are
    themselves file systems pull attributes with :meth:`attr_page_in` and
    push modifications with :meth:`attr_write_out` — the attribute
    analogues of page_in/write_out ("operations for caching and keeping
    coherent the access and modified times and file length", sec. 4.3).
    """

    @abc.abstractmethod
    def attr_page_in(self) -> "FileAttributes":
        """Fetch the file's current attributes for caching."""

    @abc.abstractmethod
    def attr_write_out(self, attrs: "FileAttributes") -> None:
        """Push modified attributes back to the pager."""
