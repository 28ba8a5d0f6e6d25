"""Page-granularity data store.

Shared by every cache manager in the system — the VMM's per-object page
caches, the coherency layer's block cache, COMPFS's uncompressed block
cache — so the per-block bookkeeping (rights, dirtiness, byte-range
read/write across page boundaries) is implemented exactly once.

Buffer ownership (see DESIGN.md section 7): the zero-copy read surface
— :meth:`CachedPage.snapshot` and :meth:`PageStore.read_bytes` — returns
read-only :class:`memoryview` slices over the page's backing buffer,
valid until the next mutation of that page.  Callers that consume the
data synchronously (write-back down a stack, transform-and-encode)
never copy; callers that retain it past the call must copy
(:meth:`PageStore.collect_modified` does, because coherency recalls
outlive the pages they were recalled from).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.types import PAGE_SIZE, AccessRights, page_range

#: The interned zero page: every zero-fill in the system slices this
#: one immutable buffer instead of allocating ``bytes(n)`` per call.
ZERO_PAGE = bytes(PAGE_SIZE)
#: Read-only view of :data:`ZERO_PAGE`; slicing a view is allocation-free
#: where slicing the bytes would copy.
ZERO_VIEW = memoryview(ZERO_PAGE)

_READ_ONLY = AccessRights.READ_ONLY


@dataclasses.dataclass(slots=True)
class CachedPage:
    """One page held by a cache manager."""

    data: bytearray
    rights: AccessRights
    dirty: bool = False

    def snapshot(self) -> memoryview:
        """Read-only view of the page's current contents — zero-copy,
        valid until the page is next mutated in place.  Retain-safe
        consumers must copy (``bytes(view)``)."""
        return memoryview(self.data).toreadonly()


def coalesce_runs(
    pairs: List[Tuple[int, CachedPage]]
) -> List[List[Tuple[int, CachedPage]]]:
    """Group ascending ``(index, page)`` pairs into contiguous runs.

    Each run is a maximal list of pairs with consecutive indices — the
    unit a coalescing cache manager writes back in one pager call.  Input order is preserved, so runs ascend whenever the input
    does."""
    runs: List[List[Tuple[int, CachedPage]]] = []
    for index, page in pairs:
        if runs and index == runs[-1][-1][0] + 1:
            runs[-1].append((index, page))
        else:
            runs.append([(index, page)])
    return runs


def index_runs(indices: List[int]) -> List[Tuple[int, int]]:
    """Coalesce ascending page indices into ``(start, count)`` runs."""
    runs: List[Tuple[int, int]] = []
    for index in indices:
        if runs and index == runs[-1][0] + runs[-1][1]:
            runs[-1] = (runs[-1][0], runs[-1][1] + 1)
        else:
            runs.append((index, 1))
    return runs


class PageStore:
    """A sparse page-indexed store with rights and dirty tracking.

    All offsets are byte offsets into the backing object; pages are
    :data:`repro.types.PAGE_SIZE` bytes.  Missing pages are faulted in by
    the owner via the ``fault`` callback given to :meth:`read` /
    :meth:`write`.

    An optional ``observer`` (an object with ``page_installed(index,
    page)`` / ``page_dropped(index, page)``) is notified whenever a page
    enters or leaves the store — the VMM uses this to maintain its
    resident-page count and eviction queues incrementally instead of
    rescanning every cache per fault.
    """

    __slots__ = ("_pages", "observer")

    def __init__(self, observer: Optional[object] = None) -> None:
        self._pages: Dict[int, CachedPage] = {}
        self.observer = observer

    def _note_install(self, index: int, page: CachedPage) -> None:
        if self.observer is not None:
            self.observer.page_installed(index, page)

    def _note_drop(self, index: int, page: CachedPage) -> None:
        if self.observer is not None:
            self.observer.page_dropped(index, page)

    # --- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, index: int) -> bool:
        return index in self._pages

    def get(self, index: int) -> Optional[CachedPage]:
        return self._pages.get(index)

    def pages(self) -> Iterator[Tuple[int, CachedPage]]:
        return iter(sorted(self._pages.items()))

    def dirty_pages(self) -> List[Tuple[int, CachedPage]]:
        return [(i, p) for i, p in sorted(self._pages.items()) if p.dirty]

    def dirty_runs(self) -> List[List[Tuple[int, CachedPage]]]:
        """Dirty pages coalesced into contiguous ascending runs — one
        write-back call per run under a coalescing manager.  A clean (or absent) page between two
        dirty ones splits the run."""
        return coalesce_runs(self.dirty_pages())

    def resident_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE

    def _tracked_pages(self, offset: int, size: int):
        """Resident pages intersecting the byte range.  Coherency actions
        may cover 'the whole file' (size 2**62); iterate resident keys,
        never the raw page range."""
        if size <= 0:
            return []
        first = offset // PAGE_SIZE
        last = (offset + size - 1) // PAGE_SIZE
        return [p for p in self._pages if first <= p <= last]

    # --- page-level mutation ----------------------------------------------
    def install(
        self, index: int, data: bytes, rights: AccessRights, dirty: bool = False
    ) -> CachedPage:
        """Install (or replace) a page.  ``data`` shorter than a page is
        zero-padded — pagers return short data at EOF.

        Replacing a resident page reuses its backing buffer in place (no
        allocation, no observer churn); views of the old contents observe
        the new bytes, per the valid-until-next-mutation contract.
        """
        length = len(data)
        page = self._pages.get(index)
        if page is not None:
            buf = page.data
            buf[:length] = data
            if length < PAGE_SIZE:
                buf[length:] = ZERO_VIEW[length:]
            page.rights = rights
            page.dirty = dirty
            return page
        buf = bytearray(PAGE_SIZE)
        buf[:length] = data
        page = CachedPage(buf, rights, dirty)
        self._pages[index] = page
        self._note_install(index, page)
        return page

    def drop(self, index: int) -> Optional[CachedPage]:
        page = self._pages.pop(index, None)
        if page is not None:
            self._note_drop(index, page)
        return page

    def drop_range(self, offset: int, size: int) -> List[Tuple[int, CachedPage]]:
        dropped = []
        for index in sorted(self._tracked_pages(offset, size)):
            page = self._pages.pop(index)
            self._note_drop(index, page)
            dropped.append((index, page))
        return dropped

    def zero_range(self, offset: int, size: int) -> None:
        """Mark a byte range as zero-filled (paper Appendix A zero_fill).
        Present pages are zeroed in place and marked clean; absent pages
        are installed as clean read-only zeros."""
        for index in page_range(offset, size):
            page = self._pages.get(index)
            if page is None:
                self.install(index, b"", AccessRights.READ_ONLY)
            else:
                page.data[:] = ZERO_PAGE
                page.dirty = False

    # --- coherency-action helpers ------------------------------------------
    def collect_modified(self, offset: int, size: int) -> Dict[int, bytes]:
        """Data of dirty pages in the range, keyed by page index.

        Returns *copies*, not views: recalled data crosses a coherency
        boundary and is retained (merged, replayed, pushed down) after
        the source pages have been dropped or mutated — the canonical
        copy-on-retain site."""
        modified = {}
        for index in self._tracked_pages(offset, size):
            page = self._pages[index]
            if page.dirty:
                modified[index] = bytes(page.data)
        return modified

    def clean_range(self, offset: int, size: int) -> None:
        for index in self._tracked_pages(offset, size):
            self._pages[index].dirty = False

    def downgrade_range(self, offset: int, size: int) -> None:
        """RW -> RO over the byte range (deny_writes)."""
        for index in self._tracked_pages(offset, size):
            self._pages[index].rights = AccessRights.READ_ONLY

    def truncate_to(self, length: int) -> None:
        """Discard cached data beyond ``length``: whole pages past the
        boundary are dropped; the tail of a partial boundary page is
        zeroed (so a later extension reads zeros, not stale bytes).  Data
        below ``length`` is preserved — unlike drop_range, which would
        discard the whole boundary page."""
        boundary_page, within = divmod(length, PAGE_SIZE)
        for index in [p for p in self._pages if p > boundary_page]:
            self._note_drop(index, self._pages.pop(index))
        if within == 0:
            page = self._pages.pop(boundary_page, None)
            if page is not None:
                self._note_drop(boundary_page, page)
        else:
            page = self._pages.get(boundary_page)
            if page is not None:
                page.data[within:] = ZERO_VIEW[within:]

    def clear(self) -> List[Tuple[int, CachedPage]]:
        everything = sorted(self._pages.items())
        self._pages.clear()
        for index, page in everything:
            self._note_drop(index, page)
        return everything

    # --- byte-range access ---------------------------------------------------
    def read_bytes(
        self,
        offset: int,
        size: int,
        fault: Callable[[int, AccessRights], CachedPage],
        access: AccessRights = _READ_ONLY,
    ):
        """Zero-copy read: ``size`` bytes starting at ``offset``.

        A range within one page returns a read-only :class:`memoryview`
        into the page — no allocation, valid until the page is next
        mutated.  Ranges spanning pages materialize exactly once into
        ``bytes``.  Missing pages fault via ``fault(index, access)`` —
        READ_ONLY unless the reader serves a client that asked for more
        (a pager answering a read-write page-in from its own cache).
        """
        if size <= 0:
            return b""
        index, start = divmod(offset, PAGE_SIZE)
        if start + size <= PAGE_SIZE:
            page = self._pages.get(index)
            if page is None:
                page = fault(index, access)
            return memoryview(page.data).toreadonly()[start : start + size]
        out = bytearray(size)
        filled = 0
        remaining = size
        position = offset
        while remaining > 0:
            index = position // PAGE_SIZE
            page = self._pages.get(index)
            if page is None:
                page = fault(index, access)
            start = position % PAGE_SIZE
            take = min(PAGE_SIZE - start, remaining)
            out[filled : filled + take] = page.data[start : start + take]
            filled += take
            position += take
            remaining -= take
        return bytes(out)

    def read(
        self,
        offset: int,
        size: int,
        fault: Callable[[int, AccessRights], CachedPage],
        access: AccessRights = _READ_ONLY,
    ) -> bytes:
        """Copy ``size`` bytes starting at ``offset`` out of the store,
        calling ``fault(page_index, access)`` for each missing page.
        The result is an immutable ``bytes`` that never aliases the
        store — the retain-safe counterpart of :meth:`read_bytes`."""
        data = self.read_bytes(offset, size, fault, access)
        if type(data) is bytes:
            return data
        return bytes(data)

    def write(
        self,
        offset: int,
        data: bytes,
        fault: Callable[[int, AccessRights], CachedPage],
    ) -> None:
        """Copy ``data`` into the store starting at ``offset``.

        Every touched page must be writable: missing pages and read-only
        pages are (re)faulted with READ_WRITE via ``fault``; pages are
        marked dirty.
        """
        remaining = len(data)
        position = offset
        consumed = 0
        pages = self._pages
        while remaining > 0:
            index = position // PAGE_SIZE
            page = pages.get(index)
            if page is None or not page.rights.writable:
                page = fault(index, AccessRights.READ_WRITE)
            start = position % PAGE_SIZE
            take = min(PAGE_SIZE - start, remaining)
            page.data[start : start + take] = data[consumed : consumed + take]
            page.dirty = True
            position += take
            consumed += take
            remaining -= take
