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

import collections
import dataclasses
import io
from itertools import repeat
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import OutOfRangeError
from repro.types import PAGE_SIZE, AccessRights, page_range

#: The interned zero page: every zero-fill in the system slices this
#: one immutable buffer instead of allocating ``bytes(n)`` per call.
ZERO_PAGE = bytes(PAGE_SIZE)
#: Read-only view of :data:`ZERO_PAGE`; slicing a view is allocation-free
#: where slicing the bytes would copy.
ZERO_VIEW = memoryview(ZERO_PAGE)

_READ_ONLY = AccessRights.READ_ONLY
_READ_WRITE = AccessRights.READ_WRITE

_data_of = attrgetter("data")


def _each(function, *columns) -> None:
    """``function(*row)`` for every row of the zipped ``columns``, in
    order, for its effect — driven from C, not from a ``for``."""
    collections.deque(map(function, *columns), maxlen=0)


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


def index_runs(indices: List[int]) -> List[Tuple[int, int]]:
    """Group ascending page indices into maximal ``(start, count)`` runs
    of consecutive ones — the unit of every transfer between a cache
    manager and a pager: one page-in per missing run, one write-back
    call per dirty run.  Runs ascend because the input does."""
    if indices and indices[-1] - indices[0] == len(indices) - 1:
        return [(indices[0], len(indices))]  # ascending and distinct: one run
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

    The store also keeps the set of dirty page indices, so a write-back
    visits the dirty pages and not every resident one.  Every change of
    a page's ``dirty`` flag therefore goes through a store method
    (:meth:`set_dirty` from outside).
    """

    __slots__ = ("_pages", "_dirty", "observer")

    def __init__(self, observer: Optional[object] = None) -> None:
        self._pages: Dict[int, CachedPage] = {}
        self._dirty: Set[int] = set()
        self.observer = observer

    # --- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, index: int) -> bool:
        return index in self._pages

    def get(self, index: int) -> Optional[CachedPage]:
        return self._pages.get(index)

    def pages(self) -> Iterator[Tuple[int, CachedPage]]:
        return iter(sorted(self._pages.items()))

    def dirty_indices(self, offset: int = 0, size: int = 2**62) -> List[int]:
        """The indices of the dirty pages, ascending — all of them, or
        those of a byte range.  What a write-back is given."""
        return sorted(self._tracked_pages(offset, size, dirty=True))

    def dirty_pages(
        self, offset: int = 0, size: int = 2**62
    ) -> List[Tuple[int, CachedPage]]:
        """The dirty pages, ascending, as ``(index, page)`` pairs."""
        dirty = sorted(self._tracked_pages(offset, size, dirty=True))
        return [(index, self._pages[index]) for index in dirty]

    def set_dirty(self, index: int, dirty: bool) -> None:
        """Mark resident page ``index`` dirty or clean."""
        self._pages[index].dirty = dirty
        (self._dirty.add if dirty else self._dirty.discard)(index)

    def needed_runs(
        self, offset: int, size: int, upgrade: bool = False
    ) -> List[Tuple[int, int]]:
        """The pages of the byte range that have to be demanded from the
        pager before the range can be read — the absent ones — or, with
        ``upgrade``, before it can be written: absent *or not writable*.
        Returned as ascending ``(first, count)`` runs."""
        if offset < 0:
            raise OutOfRangeError(f"negative offset {offset}")
        pages = self._pages
        wanted = set(page_range(offset, size))
        needed = wanted.difference(pages)
        if upgrade:
            needed.update(
                index for index in wanted.intersection(pages)
                if pages[index].rights is not _READ_WRITE
            )
        return index_runs(sorted(needed))

    def resident_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE

    def _tracked_pages(self, offset: int, size: int, dirty: bool = False):
        """Resident (or just the dirty) pages intersecting the byte
        range.  Coherency actions may cover 'the whole file' (size
        2**62); iterate resident keys, never the raw page range."""
        if size <= 0:
            return []
        first = offset // PAGE_SIZE
        last = (offset + size - 1) // PAGE_SIZE
        tracked = self._dirty if dirty else self._pages
        return [p for p in tracked if first <= p <= last]

    # --- page-level mutation ----------------------------------------------
    def install(
        self, index: int, data: bytes, rights: AccessRights, dirty: bool = False
    ) -> CachedPage:
        """Install (or replace) one page — a run of one, see
        :meth:`install_run` — clean unless ``dirty``."""
        page = self.install_run(index, 1, data, rights)
        if dirty:
            self.set_dirty(index, True)
        return page

    def install_run(
        self, first: int, count: int, data: bytes, rights: AccessRights
    ) -> Optional[CachedPage]:
        """Install (or replace) ``count`` clean pages starting at
        ``first`` out of one buffer — what a page-in of the run
        returned.  Where the data ends short of a page boundary, or of
        the run, the rest is zeros — pagers return short data at EOF.
        Returns the first page (None for an empty run).

        A run of more than one page, none of them resident, is created
        in bulk: zero pages, one pass of the buffer into them, one
        ``dict.update``, then the observer calls in ascending order.
        Replacing a resident page reuses its backing buffer in place (no
        allocation, no observer churn); views of the old contents observe
        the new bytes, per the valid-until-next-mutation contract.
        """
        pages = self._pages
        span = range(first, first + count)
        if count > 1 and pages.keys().isdisjoint(span):
            # Zero pages, and the buffer read off into them one after
            # another: short data leaves the rest of the run zero.
            buffers = list(map(bytearray, repeat(PAGE_SIZE, count)))
            _each(io.BytesIO(data).readinto, buffers)
            fresh = list(map(CachedPage, buffers, repeat(rights)))
            pages.update(zip(span, fresh))
            if self.observer is not None:
                _each(self.observer.page_installed, span, fresh)
            return fresh[0]
        view = memoryview(data)
        for index in span:
            position = (index - first) * PAGE_SIZE
            chunk = view[position : position + PAGE_SIZE]
            page = pages.get(index)
            if page is None:
                buf = bytearray(chunk)
                if len(buf) < PAGE_SIZE:
                    buf += ZERO_VIEW[len(buf) :]
                page = pages[index] = CachedPage(buf, rights)
                if self.observer is not None:
                    self.observer.page_installed(index, page)
            else:
                page.data[: len(chunk)] = chunk
                page.data[len(chunk) :] = ZERO_VIEW[len(chunk) :]
                page.rights = rights
                self.set_dirty(index, False)
        return pages.get(first)

    def drop(self, index: int) -> Optional[CachedPage]:
        page = self._pages.pop(index, None)
        if page is not None:
            self._dirty.discard(index)
            if self.observer is not None:
                self.observer.page_dropped(index, page)
        return page

    def drop_range(
        self, offset: int, size: int, keep_dirty: bool = False
    ) -> List[Tuple[int, CachedPage]]:
        """Drop the resident pages of the byte range (all of them, or
        with ``keep_dirty`` only the clean ones); returns what went."""
        dropped = []
        for index in sorted(self._tracked_pages(offset, size)):
            if not (keep_dirty and index in self._dirty):
                dropped.append((index, self.drop(index)))
        return dropped

    def zero_range(self, offset: int, size: int) -> None:
        """Mark a byte range as zero-filled (paper Appendix A zero_fill).
        Present pages are zeroed in place and marked clean; absent pages
        are installed as clean read-only zeros."""
        for index in self._tracked_pages(offset, size):
            self._pages[index].data[:] = ZERO_PAGE
            self.set_dirty(index, False)
        for first, count in self.needed_runs(offset, size):
            self.install_run(first, count, b"", _READ_ONLY)

    # --- coherency-action helpers ------------------------------------------
    def collect_modified(self, offset: int, size: int) -> Dict[int, bytes]:
        """Data of dirty pages in the range, keyed by page index.

        Returns *copies*, not views: recalled data crosses a coherency
        boundary and is retained (merged, replayed, pushed down) after
        the source pages have been dropped or mutated — the canonical
        copy-on-retain site."""
        return {i: bytes(page.data) for i, page in self.dirty_pages(offset, size)}

    def install_modified(self, modified: Dict[int, bytes]) -> None:
        """Install what a holder's :meth:`collect_modified` gave back:
        newer than the pager's own copy, so read-write and dirty."""
        for index, data in modified.items():
            self.install(index, data, _READ_WRITE, dirty=True)

    def clean_range(self, offset: int, size: int) -> None:
        for index in self._tracked_pages(offset, size, dirty=True):
            self.set_dirty(index, False)

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
        if within:
            page = self._pages.get(boundary_page)
            if page is not None:
                page.data[within:] = ZERO_VIEW[within:]
            boundary_page += 1
        if not boundary_page:
            self.clear()  # every page goes: no per-page work
        for index in [p for p in self._pages if p >= boundary_page]:
            self.drop(index)

    def clear(self) -> List[Tuple[int, CachedPage]]:
        everything = sorted(self._pages.items())
        self._pages.clear()
        self._dirty.clear()
        if self.observer is not None:
            for index, page in everything:
                self.observer.page_dropped(index, page)
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
        ``bytes`` — one join over the page buffers, head and tail
        trimmed by views.  Missing pages fault via ``fault(index,
        access)`` — READ_ONLY unless the reader serves a client that
        asked for more (a pager answering a read-write page-in from its
        own cache).
        """
        if size <= 0:
            return b""
        index, start = divmod(offset, PAGE_SIZE)
        page = self._pages.get(index)
        if page is not None and start + size <= PAGE_SIZE:
            return memoryview(page.data).toreadonly()[start : start + size]
        # Not a one-page hit.  No page below zero is ever resident, so
        # the hit above never had to ask.
        if offset < 0:
            raise OutOfRangeError(f"negative offset {offset}")
        if start + size <= PAGE_SIZE:
            page = fault(index, access)
            return memoryview(page.data).toreadonly()[start : start + size]
        end = offset + size
        span = range(index, (end - 1) // PAGE_SIZE + 1)
        try:
            held = list(map(self._pages.__getitem__, span))
        except KeyError:  # a miss: page by page, faulting where needed
            held = [self._pages.get(i) or fault(i, access) for i in span]
        buffers = list(map(_data_of, held))
        buffers[0] = memoryview(buffers[0])[start:]
        if end % PAGE_SIZE:
            buffers[-1] = memoryview(buffers[-1])[: end % PAGE_SIZE]
        return b"".join(buffers)

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
        return bytes(self.read_bytes(offset, size, fault, access))

    def write(
        self,
        offset: int,
        data: bytes,
        fault: Callable[[int, AccessRights], CachedPage],
    ) -> None:
        """Copy ``data`` into the store starting at ``offset``.

        Every touched page must be writable: missing pages and read-only
        pages are (re)faulted with READ_WRITE via ``fault``; pages are
        marked dirty.  Each byte is copied once, straight out of
        ``data``: a one-page write is one slice assignment, a longer one
        over resident writable pages is read off into their buffers.
        """
        if offset < 0:
            raise OutOfRangeError(f"negative offset {offset}")
        size = len(data)
        pages = self._pages
        index, start = divmod(offset, PAGE_SIZE)
        if start + size <= PAGE_SIZE:
            if size:
                page = pages.get(index)
                if page is None or page.rights is not _READ_WRITE:
                    page = fault(index, _READ_WRITE)
                page.data[start : start + size] = data
                page.dirty = True
                self._dirty.add(index)
            return
        span = range(index, (offset + size - 1) // PAGE_SIZE + 1)
        held = list(map(pages.get, span))
        rights = list(map(getattr, held, repeat("rights"), repeat(None)))
        if rights.count(_READ_WRITE) < len(held):
            # A fault may evict: page by page, each written before the
            # next is faulted.
            view = memoryview(data)
            for at in range(-start, size, PAGE_SIZE):
                low = max(at, 0)
                self.write(offset + low, view[low : at + PAGE_SIZE], fault)
            return
        # Nothing to fault: the data is read off into the page buffers
        # one after another — the head page from ``start``, whole pages,
        # what is left into the tail page — and the run marked at once.
        source = io.BytesIO(data)
        buffers = list(map(_data_of, held))
        source.readinto(memoryview(buffers[0])[start:])
        _each(source.readinto, buffers[1:])
        _each(setattr, held, repeat("dirty"), repeat(True))
        self._dirty.update(span)
