"""The cache manager's half of a pager-cache channel, written once.

"Pagers can also act as cache managers to other pagers" (paper sec.
4.2): the VMM caching a mapped file, the coherency layer caching the
disk layer's blocks and CRYPTFS and COMPFS caching their plaintext all
stand on the same side of a channel and make the same Appendix B calls.  A
:class:`SourceCache` is that side for one source — a
:class:`~repro.vm.page.PageStore`, a sequential-stream detector and the
way to the channel's pager object — and owns the three things a cache
manager does with it:

* **fault** a run of pages in — one page for a load or store through a
  mapping, every needed page at once for a file operation that knows
  its range — as one ``page_in`` of that size or, when the fault
  continues a sequential stream and the manager has a read-ahead
  window, one ranged page-in whose extra pages are installed
  speculatively;
* **prefetch** the needed pages of a byte range, one fault per
  contiguous run;
* **write back** dirty pages as one ``page_out`` / ``write_out`` /
  ``sync`` call carrying every contiguous run — adjacent dirty pages
  are one run, the channel moves byte ranges — settling the pages
  (dropped, downgraded or marked clean) only after that call returned.

What differs between cache managers is subclass surface: where the pager
object comes from (``pager()``), a transform between the cache's pages
and the channel's (``decode`` / ``encode``) and the manager's own
per-fault work and residency bound (``before_fetch`` /
:meth:`SourceCache.full`).
"""

from __future__ import annotations

import sys
from typing import List, Optional

from repro.types import PAGE_SIZE, AccessRights
from repro.vm.page import CachedPage, PageStore, index_runs
from repro.vm.readahead import StreamTable


class SourceCache:
    """One cache manager's pages for one source; see module docstring.

    ``manager`` is the cache manager the cache belongs to — the VMM or a
    file system layer — and supplies the knob: ``readahead_pages`` (the
    window a sequential fault asks for).  ``tag`` names the manager in
    the ``<tag>.readahead`` counter.
    """

    __slots__ = ("manager", "world", "store", "streams", "readahead_override",
                 "_readahead_key")

    #: Transforms of a cache whose pages differ from what crosses the
    #: channel: ``decode(first_index, data) -> data`` on the way in,
    #: ``encode(indices) -> {page index below: page}`` (``indices`` the
    #: dirty pages to push, ascending) on the way out.  None: the
    #: channel carries the pages as they are.
    decode = None
    encode = None
    #: ``before_fetch(first, pages)``: the manager's own work on a fault
    #: that is about to fetch ``pages`` pages starting at ``first`` (the
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
    # ``pager() -> PagerObject``, which every kind defines: the live pager
    # object of this cache's channel, establishing (or refusing to use)
    # the channel as the manager requires.

    def full(self) -> bool:
        """True when no further speculative page may be installed."""
        return False

    # --- faulting ------------------------------------------------------------
    def fault(self, first: int, access: AccessRights, count: int = 1) -> CachedPage:
        """Bring the run of ``count`` pages starting at page ``first`` in
        from the pager with ``access``, in one call; returns the first.
        One page is what :meth:`PageStore.read` / :meth:`PageStore.write`
        ask for on a miss; a file operation asks for whole runs first
        (:meth:`prefetch`).

        A fault that continues a sequential stream, in a cache whose
        manager has a read-ahead window, is a ranged page-in — at least
        the run, at most the run plus the window — and installs the
        extra pages speculatively (clean, same access).  Nothing is
        installed unless the call returns.
        """
        pager = self.pager()
        window = self.readahead_override
        if window is None:
            window = self.manager.readahead_pages
        if not self.streams.observe(first):
            window = 0
        if self.before_fetch is not None:
            self.before_fetch(first, count + window)
        nbytes = count * PAGE_SIZE
        if window == 0:
            data = pager.page_in(first * PAGE_SIZE, nbytes, access)
        else:
            self.world.counters.inc(self._readahead_key)
            data = pager.page_in_range(
                first * PAGE_SIZE, nbytes, nbytes + window * PAGE_SIZE, access
            )
        if self.decode is not None:
            data = self.decode(first, data)
        store = self.store
        page = store.install_run(first, count, data, access)
        through = first + count - 1
        for position in range(nbytes, len(data), PAGE_SIZE):
            if self.full():
                break
            through += 1
            if through not in store:
                store.install(through, data[position : position + PAGE_SIZE], access)
        if through != first:
            # The next fault of this scan lands after the run and its
            # window; move the stream head so it still looks sequential.
            self.streams.advance_head(through)
        return page

    def prefetch(
        self, offset: int, size: int, access: AccessRights, upgrade: bool = False
    ) -> None:
        """Demand the needed pages of ``[offset, offset + size)`` — the
        absent ones, or with ``upgrade`` (the range is about to be
        written) the absent and the read-only ones — one :meth:`fault`
        per contiguous run.  For the operations that know their range:
        a file read or write, a page-in served out of this cache."""
        for first, count in self.store.needed_runs(offset, size, upgrade):
            self.fault(first, access, count)

    # --- write-back ------------------------------------------------------------
    def write_back(self, indices: List[int], op: str) -> int:
        """Push the resident pages ``indices`` — ascending, from the
        store's dirty index — to the pager with ``op``, in one call that
        carries every contiguous run.  ``op`` names what the cache keeps
        of them: ``page_out`` nothing (the pages are dropped),
        ``write_out`` a read-only copy, ``sync`` the pages as they were
        (marked clean).  The pages are settled only once the call
        returned, so a failed call leaves every one of them dirty and
        resident.  Returns the number of pages pushed."""
        if not indices:
            return 0
        push = getattr(self.pager(), op)
        store = self.store
        runs = []
        if self.encode is not None:
            pages = self.encode(indices)
            for first, count in index_runs(sorted(pages)):
                data = b"".join([pages[i] for i in range(first, first + count)])
                runs.append((first * PAGE_SIZE, count * PAGE_SIZE, data))
        else:
            for first, count in index_runs(indices):
                if count == 1:
                    data = store.get(first).snapshot()
                else:
                    data = b"".join(
                        [store.get(index).snapshot() for index in range(first, first + count)]
                    )
                runs.append((first * PAGE_SIZE, count * PAGE_SIZE, data))
        push(runs)
        for index in indices:
            if op == "page_out":
                store.drop(index)
            else:
                store.set_dirty(index, False)
                if op == "write_out":
                    store.get(index).rights = AccessRights.READ_ONLY
        return len(indices)
