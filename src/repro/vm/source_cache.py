"""The cache manager's half of a pager-cache channel, written once.

"Pagers can also act as cache managers to other pagers" (paper sec.
4.2): the VMM caching a mapped file, the coherency layer caching the
disk layer's blocks and CRYPTFS caching decrypted blocks all stand on
the same side of a channel and make the same Appendix B calls.  A
:class:`SourceCache` is that side for one source — a
:class:`~repro.vm.page.PageStore`, a sequential-stream detector and the
way to the channel's pager object — and owns the three things a cache
manager does with it:

* **fault** one page in, or, when the fault continues a sequential
  stream and the manager has a read-ahead window, a ranged page-in
  whose extra pages are installed speculatively;
* **prefetch** the missing runs of a byte range an upstream window
  asked for, one ranged page-in per run;
* **write back** dirty ``(index, page)`` pairs as ``page_out`` /
  ``write_out`` / ``sync`` calls of one page or of one contiguous run,
  settling each page (dropped, downgraded or marked clean) only after
  the call that carried it returned.

What differs between cache managers is subclass surface: where the pager
object comes from (:meth:`SourceCache.pager`), a per-block transform
(``decode`` / ``encode``), the manager's own per-fault work and
residency bound (``before_fetch`` / :meth:`SourceCache.full`) and
whether adjacent dirty pages share a call (:meth:`SourceCache.coalesces`).
"""

from __future__ import annotations

import sys
from typing import List, Optional, Sequence, Tuple

from repro.types import PAGE_SIZE, AccessRights, page_range
from repro.vm.page import CachedPage, PageStore, coalesce_runs, index_runs
from repro.vm.pager_object import PagerObject
from repro.vm.readahead import StreamTable


def write_run(pager, op: str, offset: int, chunks: Sequence) -> None:
    """One write-back call carrying the contiguous run of page-size
    ``chunks`` that starts at byte ``offset``.  ``op`` names what the
    caller keeps of it — ``page_out`` (nothing), ``write_out`` (a
    read-only copy), ``sync`` (the pages as they were)."""
    data = chunks[0] if len(chunks) == 1 else b"".join(chunks)
    getattr(pager, op)(offset, len(chunks) * PAGE_SIZE, data)


class SourceCache:
    """One cache manager's pages for one source; see module docstring.

    ``manager`` is the cache manager the cache belongs to — the VMM or a
    file system layer — and supplies the knobs: ``readahead_pages`` (the
    window a sequential fault asks for) and ``batch_pageout`` (whether
    adjacent dirty pages go out in one call).  ``tag`` names the manager in
    the ``<tag>.readahead`` counter.
    """

    __slots__ = ("manager", "world", "store", "streams", "readahead_override",
                 "_readahead_key")

    #: Per-block transforms of a cache whose pages differ from what
    #: crosses the channel: ``decode(first_index, data) -> data`` on the
    #: way in, ``encode(run) -> chunks`` on the way out.  None: the
    #: channel carries the pages as they are.
    decode = None
    encode = None
    #: ``before_fetch(index, pages)``: the manager's own work on a fault
    #: that is about to fetch ``pages`` pages starting at ``index`` (the
    #: VMM charges the fault and makes room).  None: nothing to do.
    before_fetch = None

    def __init__(self, manager, tag: str, observer: Optional[object] = None) -> None:
        self.manager = manager
        self.world = manager.world
        self.store = PageStore(observer=observer)
        self.streams = StreamTable()
        #: Per-cache read-ahead window; None means use the manager's
        #: ``readahead_pages``.  CFS sets this on the VMM caches it maps
        #: through, to get read-ahead on its own traffic without
        #: changing the node's global policy.
        self.readahead_override: Optional[int] = None
        self._readahead_key = sys.intern(f"{tag}.readahead")

    # --- what a kind of cache manager supplies -------------------------------
    def pager(self) -> PagerObject:
        """The live pager object of this cache's channel, establishing
        (or refusing to use) the channel as the manager requires."""
        raise NotImplementedError

    def full(self) -> bool:
        """True when no further speculative page may be installed."""
        return False

    def coalesces(self) -> bool:
        """True when adjacent dirty pages go out in one call, False when
        every page gets a call of its own.  By default the manager's
        ``batch_pageout`` decides."""
        return self.manager.batch_pageout

    # --- faulting ------------------------------------------------------------
    def fault(self, index: int, access: AccessRights) -> CachedPage:
        """Bring page ``index`` in from the pager with ``access`` — the
        callback :meth:`PageStore.read` / :meth:`PageStore.write` invoke
        on a miss.

        A fault that continues a sequential stream, in a cache whose
        manager has a read-ahead window, issues one ranged page-in and
        installs the extra pages speculatively (clean, same access).
        """
        pager = self.pager()
        window = self.readahead_override
        if window is None:
            window = self.manager.readahead_pages
        if not self.streams.observe(index):
            window = 0
        if self.before_fetch is not None:
            self.before_fetch(index, 1 + window)
        if window == 0:
            data = pager.page_in(index * PAGE_SIZE, PAGE_SIZE, access)
            if self.decode is not None:
                data = self.decode(index, data)
            return self.store.install(index, data, access)
        self.world.counters.inc(self._readahead_key)
        data = pager.page_in_range(
            index * PAGE_SIZE, PAGE_SIZE, (1 + window) * PAGE_SIZE, access
        )
        if self.decode is not None:
            data = self.decode(index, data)
        store = self.store
        page = store.install(index, data[:PAGE_SIZE], access)
        through = index
        for i in range(1, max(0, (len(data) - 1) // PAGE_SIZE) + 1):
            if self.full():
                break
            if index + i not in store:
                store.install(
                    index + i, data[i * PAGE_SIZE : (i + 1) * PAGE_SIZE], access
                )
            through = index + i
        # The next fault of this scan lands after the prefetched window;
        # move the stream head so it still looks sequential.
        self.streams.advance_head(through)
        return page

    def prefetch(self, offset: int, size: int, access: AccessRights) -> None:
        """Fetch the missing pages of ``[offset, offset + size)`` as
        ranged page-ins, one per contiguous missing run.  Single-page
        gaps are left to the fault path (identical cost, and they keep
        feeding the sequential-stream detector)."""
        store = self.store
        missing = [index for index in page_range(offset, size) if index not in store]
        for first, count in index_runs(missing):
            if count < 2:
                continue
            nbytes = count * PAGE_SIZE
            data = self.pager().page_in_range(first * PAGE_SIZE, nbytes, nbytes, access)
            if self.decode is not None:
                data = self.decode(first, data)
            for i in range(count):
                store.install(
                    first + i, data[i * PAGE_SIZE : (i + 1) * PAGE_SIZE], access
                )

    # --- write-back ------------------------------------------------------------
    def write_back(self, pairs: List[Tuple[int, CachedPage]], op: str) -> int:
        """Push ``(index, page)`` pairs to the pager with ``op`` (see
        :func:`write_run`), in the order given — ascending, from the
        store's dirty lists.  A page is settled (dropped after a
        ``page_out``, clean after a ``sync``, clean and read-only after
        a ``write_out``) only once the call that carried it returned, so
        a failed call leaves it dirty and resident.  Returns the number
        of pages pushed."""
        if not pairs:
            return 0
        pager = self.pager()
        encode = self.encode
        # Where nothing is coalesced, every page is a run of its own.
        for run in coalesce_runs(pairs) if self.coalesces() else zip(pairs):
            if encode is None:
                chunks = [page.snapshot() for _, page in run]
            else:
                chunks = encode(run)
            write_run(pager, op, run[0][0] * PAGE_SIZE, chunks)
            for index, page in run:
                if op == "page_out":
                    self.store.drop(index)
                else:
                    page.dirty = False
                    if op == "write_out":
                        page.rights = AccessRights.READ_ONLY
        return len(pairs)
