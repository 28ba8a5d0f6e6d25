"""Per-block holder tracking — the heart of the coherency protocol.

"The implementation keeps track of the state of each file block
(read-only vs. read-write) and of each cache object that holds the block
at any point in time.  Coherency actions are triggered depending on the
state and the current request using a single-writer/multiple-reader
per-block coherency algorithm." (paper sec. 6.2)

A :class:`BlockHolderTable` records, for one file, which upstream
channels hold which blocks in which mode, and performs the fan-out of
coherency actions (deny_writes / flush_back / write_back / delete_range)
against the holders' cache objects.  It is reused by every pager that
maintains coherency: the coherency layer, DFS, and the monolithic SFS.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.types import PAGE_SIZE, AccessRights, page_range
from repro.vm.channel import Channel

#: A size no file reaches: "the rest of the file" for invalidations, and
#: the extent of the coarse protocol's whole-file coherency actions.
WHOLE_FILE = 2**62


class BlockHolderTable:
    """MRSW state for the blocks of one file across client channels.

    Alongside the per-page map, two refcount indexes are maintained:
    how many page entries each holder oid has (``_oid_refs``) and how
    many of those are writable (``_writer_refs``).  They exist purely so
    the hot query paths (:meth:`acquire`, :meth:`collect_latest`) can
    prove "no conflict possible" in O(1) and skip the page scan — the
    common case when one client owns a file.  Closed channels stay
    counted until dropped, which only costs a fall-through to the scan,
    never a missed conflict.
    """

    __slots__ = ("_holders", "_oid_refs", "_writer_refs")

    def __init__(self) -> None:
        #: page index -> {channel cache-object oid -> (channel, rights)}
        self._holders: Dict[int, Dict[int, Tuple[Channel, AccessRights]]] = {}
        #: holder oid -> number of page entries it appears in.
        self._oid_refs: Dict[int, int] = {}
        #: holder oid -> number of page entries it holds read-write.
        self._writer_refs: Dict[int, int] = {}

    def _tracked_pages(self, offset: int, size: int) -> List[int]:
        """Pages we actually track that intersect the byte range.  Ranges
        may be huge ('whole file': size 2**62), so never iterate the raw
        page range — only the tracked keys."""
        if size <= 0:
            return []
        first = offset // PAGE_SIZE
        last = (offset + size - 1) // PAGE_SIZE
        return [p for p in self._holders if first <= p <= last]

    # --- refcount maintenance --------------------------------------------
    def _unref(self, oid: int, was_writable: bool) -> None:
        refs = self._oid_refs
        count = refs.get(oid, 0)
        if count <= 1:
            refs.pop(oid, None)
        else:
            refs[oid] = count - 1
        if was_writable:
            self._unref_writer(oid)

    def _unref_writer(self, oid: int) -> None:
        writers = self._writer_refs
        count = writers.get(oid, 0)
        if count <= 1:
            writers.pop(oid, None)
        else:
            writers[oid] = count - 1

    # --- bookkeeping -----------------------------------------------------
    def record(
        self, channel: Channel, offset: int, size: int, access: AccessRights
    ) -> None:
        """Note that ``channel`` now holds the range with ``access``.

        Unlike the query paths, recording really touches every page in
        the range — callers pass real transfer sizes here.
        """
        oid = channel.cache_object.oid
        writable = access.writable
        holders = self._holders
        oid_refs = self._oid_refs
        writer_refs = self._writer_refs
        entry = (channel, access)
        for page in page_range(offset, size):
            page_holders = holders.get(page)
            if page_holders is None:
                page_holders = holders[page] = {}
            previous = page_holders.get(oid)
            page_holders[oid] = entry
            if previous is None:
                oid_refs[oid] = oid_refs.get(oid, 0) + 1
                if writable:
                    writer_refs[oid] = writer_refs.get(oid, 0) + 1
            else:
                was_writable = previous[1].writable
                if writable and not was_writable:
                    writer_refs[oid] = writer_refs.get(oid, 0) + 1
                elif was_writable and not writable:
                    self._unref_writer(oid)

    def forget_range(self, channel: Channel, offset: int, size: int) -> None:
        oid = channel.cache_object.oid
        for page in self._tracked_pages(offset, size):
            previous = self._holders[page].pop(oid, None)
            if previous is not None:
                self._unref(oid, previous[1].writable)

    def drop_channel(self, channel: Channel) -> None:
        oid = channel.cache_object.oid
        for holders in self._holders.values():
            previous = holders.pop(oid, None)
            if previous is not None:
                self._unref(oid, previous[1].writable)

    def holders_of(self, page: int) -> List[Tuple[Channel, AccessRights]]:
        return list(self._holders.get(page, {}).values())

    def writer_of(self, page: int) -> Optional[Channel]:
        for channel, rights in self.holders_of(page):
            if rights.writable:
                return channel
        return None

    def any_holder(self) -> bool:
        return bool(self._oid_refs)

    # --- coherency actions ------------------------------------------------
    def _conflicting_channels(
        self, offset: int, size: int, access: AccessRights, exclude_oid: Optional[int]
    ) -> Dict[int, Tuple[Channel, AccessRights]]:
        """Channels that must be acted on before granting ``access`` over
        the range: every other holder for a write request, every other
        *writer* for a read request."""
        conflicts: Dict[int, Tuple[Channel, AccessRights]] = {}
        for page in self._tracked_pages(offset, size):
            for oid, (channel, rights) in self._holders[page].items():
                if oid == exclude_oid or channel.closed:
                    continue
                if access.writable or rights.writable:
                    # Keep the strongest conflicting mode we have seen.
                    previous = conflicts.get(oid)
                    if previous is None or rights.writable:
                        conflicts[oid] = (channel, rights)
        return conflicts

    def acquire(
        self,
        requester: Optional[Channel],
        offset: int,
        size: int,
        access: AccessRights,
    ) -> Dict[int, bytes]:
        """Make it legal for ``requester`` (or the pager itself, when
        None) to hold ``[offset, offset+size)`` with ``access``.

        Read requests downgrade conflicting writers (deny_writes); write
        requests flush every other holder (flush_back).  Returns the
        modified data recovered from holders, keyed by page index — the
        caller must merge it into its authoritative copy *before* serving
        the request.
        """
        exclude = requester.cache_object.oid if requester is not None else None
        # O(1) no-conflict proofs from the refcount indexes: a write
        # request conflicts only with *other holders*, a read request
        # only with *other writers*.  When neither exists, skip the page
        # scan entirely — the single-client common case.
        if access.writable:
            refs = self._oid_refs
            no_conflicts = not refs or (len(refs) == 1 and exclude in refs)
        else:
            writers = self._writer_refs
            no_conflicts = not writers or (
                len(writers) == 1 and exclude in writers
            )
        if no_conflicts:
            if requester is not None:
                self.record(requester, offset, size, access)
            return {}
        recovered: Dict[int, bytes] = {}
        for oid, (channel, rights) in self._conflicting_channels(
            offset, size, access, exclude
        ).items():
            if access.writable:
                modified = channel.cache_object.flush_back(offset, size)
                self._forget_holder_range(oid, offset, size)
            else:
                modified = channel.cache_object.deny_writes(offset, size)
                self._downgrade_holder_range(oid, offset, size)
            recovered.update(modified)
        if requester is not None:
            self.record(requester, offset, size, access)
        return recovered

    def collect_latest(self, offset: int, size: int) -> Dict[int, bytes]:
        """Pull current modified data from writers without changing their
        mode (write_back) — used when the pager itself needs to *read*
        data that an upstream cache may have dirtied."""
        if not self._writer_refs:
            return {}
        recovered: Dict[int, bytes] = {}
        seen: set = set()
        for page in self._tracked_pages(offset, size):
            for oid, (channel, rights) in self._holders[page].items():
                if rights.writable and oid not in seen and not channel.closed:
                    seen.add(oid)
                    recovered.update(channel.cache_object.write_back(offset, size))
        return recovered

    def invalidate(
        self, offset: int, size: int, exclude: Optional[Channel] = None
    ) -> None:
        """delete_range on every holder (e.g. after a truncate)."""
        exclude_oid = exclude.cache_object.oid if exclude is not None else None
        notified: set = set()
        for page in self._tracked_pages(offset, size):
            holders = self._holders[page]
            for oid, (channel, rights) in list(holders.items()):
                if oid == exclude_oid:
                    continue
                if oid not in notified and not channel.closed:
                    notified.add(oid)
                    channel.cache_object.delete_range(offset, size)
                holders.pop(oid, None)
                self._unref(oid, rights.writable)

    # --- internals --------------------------------------------------------
    def _forget_holder_range(self, oid: int, offset: int, size: int) -> None:
        for page in self._tracked_pages(offset, size):
            previous = self._holders[page].pop(oid, None)
            if previous is not None:
                self._unref(oid, previous[1].writable)

    def _downgrade_holder_range(self, oid: int, offset: int, size: int) -> None:
        for page in self._tracked_pages(offset, size):
            holders = self._holders[page]
            previous = holders.get(oid)
            if previous is not None:
                holders[oid] = (previous[0], AccessRights.READ_ONLY)
                if previous[1].writable:
                    self._unref_writer(oid)


class WholeFileHolderTable:
    """The coarse alternative protocol: whole-file multiple-reader /
    single-writer.

    The paper's architecture deliberately does not fix the protocol
    ("pagers are free to implement whatever coherency protocol they
    wish", sec. 3.3.3); its production choice is per-block
    (:class:`BlockHolderTable`).  This implementation tracks one state
    per *file* instead: any write conflict flushes a holder's entire
    cache of the file.  Correct, simpler, and pathological under false
    sharing — which `benchmarks/bench_ablation_protocol.py` measures.

    Implements the same interface as :class:`BlockHolderTable`.
    """

    def __init__(self) -> None:
        #: cache-object oid -> (channel, rights) — one entry per holder.
        self._holders: Dict[int, Tuple[Channel, AccessRights]] = {}

    # --- bookkeeping -----------------------------------------------------
    def record(
        self, channel: Channel, offset: int, size: int, access: AccessRights
    ) -> None:
        oid = channel.cache_object.oid
        previous = self._holders.get(oid)
        if previous is not None and previous[1].writable:
            access = AccessRights.READ_WRITE  # never silently downgrade
        self._holders[oid] = (channel, access)

    def forget_range(self, channel: Channel, offset: int, size: int) -> None:
        # Coarse protocol: giving up any of the file gives up all of it.
        self._holders.pop(channel.cache_object.oid, None)

    def drop_channel(self, channel: Channel) -> None:
        self._holders.pop(channel.cache_object.oid, None)

    def holders_of(self, page: int) -> List[Tuple[Channel, AccessRights]]:
        return list(self._holders.values())

    def writer_of(self, page: int) -> Optional[Channel]:
        for channel, rights in self._holders.values():
            if rights.writable:
                return channel
        return None

    def any_holder(self) -> bool:
        return bool(self._holders)

    # --- coherency actions ------------------------------------------------
    def acquire(
        self,
        requester: Optional[Channel],
        offset: int,
        size: int,
        access: AccessRights,
    ) -> Dict[int, bytes]:
        exclude = requester.cache_object.oid if requester is not None else None
        recovered: Dict[int, bytes] = {}
        for oid, (channel, rights) in list(self._holders.items()):
            if oid == exclude or channel.closed:
                continue
            if access.writable:
                recovered.update(channel.cache_object.flush_back(0, WHOLE_FILE))
                del self._holders[oid]
            elif rights.writable:
                recovered.update(channel.cache_object.deny_writes(0, WHOLE_FILE))
                self._holders[oid] = (channel, AccessRights.READ_ONLY)
        if requester is not None:
            self.record(requester, offset, size, access)
        return recovered

    def collect_latest(self, offset: int, size: int) -> Dict[int, bytes]:
        recovered: Dict[int, bytes] = {}
        for oid, (channel, rights) in self._holders.items():
            if rights.writable and not channel.closed:
                recovered.update(channel.cache_object.write_back(0, WHOLE_FILE))
        return recovered

    def invalidate(
        self, offset: int, size: int, exclude: Optional[Channel] = None
    ) -> None:
        exclude_oid = exclude.cache_object.oid if exclude is not None else None
        for oid, (channel, _) in list(self._holders.items()):
            if oid == exclude_oid:
                continue
            if not channel.closed:
                channel.cache_object.delete_range(0, WHOLE_FILE)
            del self._holders[oid]


def make_holder_table(protocol: str):
    """Factory for the pluggable coherency policy."""
    if protocol == "per_block":
        return BlockHolderTable()
    if protocol == "whole_file":
        return WholeFileHolderTable()
    raise ValueError(f"unknown coherency protocol {protocol!r}")
