"""The stack runtime shared by every file system layer.

The paper's central claim about stackable file systems is that a layer
implements only the operations it *changes*; everything else flows
through the pager/cache channel unchanged (sec. 4).  This module is that
claim made concrete.  It provides:

* the pager-side bind handshake with channel reuse (sec. 3.3.2), via
  :class:`repro.vm.pager_base.ChannelRegistry`;
* a pager object per (file, cache manager) channel that exports the
  ``fs_pager`` interface (:class:`LayerPagerObject`) and an ``fs_cache``
  object per downstream channel (:class:`LayerFsCache`), both of which
  dispatch every channel operation through the layer's single
  :class:`ChannelOps` table;
* :class:`ChannelOps` — the dispatch spine.  Its defaults implement a
  complete coherent pass-through layer (modelled on DFS's forwarding):
  holder bookkeeping above, forwarding below.  Concrete layers
  subclass it and override only their transform points — COMPFS's
  encode/decode, CRYPTFS's seal/unseal, the coherency layer's page
  cache; the cache side is one recall-first template for all of them;
* :class:`LayerRuntime` — uniform telemetry at the dispatch choke-point:
  every dispatched op increments a standardized ``<layer>.<op>`` counter
  (plus ``<layer>.<op>.bytes`` when data moves);
* generic per-file state (:class:`LayerFileState`), file wrappers
  (:class:`LayerFile`, :class:`ForwardingFile`) and the naming face
  (:class:`LayerNaming`), written once and run both on the layer root
  and on its :class:`LayerDirectory` handles, so a transparent
  pass-through layer is just a ``fs_type`` away (see ``nullfs.py``);
* the cache manager's file protocol — recall from the holders above,
  merge, then act (:meth:`BaseLayer.recall`,
  :meth:`BaseLayer.recall_for_shrink`, :meth:`BaseLayer.push_recovered`,
  :func:`split_pages`) — so a layer's ``file_*`` hooks say only what the
  layer does with the data;
* :class:`LayerCache` — a layer's per-file
  :class:`~repro.vm.source_cache.SourceCache` over the file's downstream
  channel: fault, read-ahead, prefetch and write-back for a layer that
  caches what it pages in from below;
* :class:`TransformLayer` — the data hooks of a layer whose pages are a
  transform of the file below (CRYPTFS, COMPFS), written once: the layer
  supplies its cache's ``decode`` / ``encode`` and the map between its
  file's length and the length below.
"""

from __future__ import annotations

import abc
import contextlib
import sys
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.errors import FsError, OutOfRangeError, StackingError
from repro.ipc.compound import compound_region
from repro.ipc.invocation import bytes_in, operation
from repro.ipc.narrow import narrow
from repro.naming.context import NamingContext
from repro.types import PAGE_SIZE, AccessRights, page_range
from repro.vm.cache_object import FsCache
from repro.vm.channel import BindResult, CacheRights, Channel
from repro.vm.memory_object import CacheManager
from repro.vm.page import index_runs
from repro.vm.pager_object import FsPager, PagerObject, Runs
from repro.vm.pager_base import ChannelRegistry
from repro.vm.source_cache import SourceCache

from repro.fs.attributes import FileAttributes
from repro.fs.file import File
from repro.fs.fs_interfaces import StackableFs
from repro.fs.holders import WHOLE_FILE, make_holder_table

#: Channel operations dispatched through the spine, pager side then
#: cache side.  ``write_out``/``sync`` are the retain-variants of
#: ``page_out``; they share the page_out dispatch entry but are counted
#: under their own wire names.
PAGER_OPS: Tuple[str, ...] = (
    "page_in",
    "page_in_range",
    "page_out",
    "write_out",
    "sync",
    "attr_page_in",
    "attr_write_out",
)
CACHE_OPS: Tuple[str, ...] = (
    "flush_back",
    "deny_writes",
    "write_back",
    "delete_range",
    "zero_fill",
    "populate",
    "destroy_cache",
    "invalidate_attributes",
    "write_back_attributes",
)

#: What :meth:`BaseLayer.fanout_region` returns with ``compound`` off:
#: one reusable no-op context, not a new one per fan-out.
_NO_REGION = contextlib.nullcontext()


def split_pages(offset: int, size: int, data) -> Dict[int, bytes]:
    """A channel op's ``offset, size, data`` as ``{page index: chunk}`` —
    the form holder recalls come back in and ``merge_recovered`` takes."""
    return {
        index: data[i * PAGE_SIZE : (i + 1) * PAGE_SIZE]
        for i, index in enumerate(page_range(offset, size))
    }


class LayerRuntime:
    """Per-layer telemetry, applied at the channel dispatch choke-point.

    Every operation dispatched through :class:`LayerPagerObject` /
    :class:`LayerFsCache` runs through :meth:`dispatch` exactly once, so
    the ``<layer>.<op>`` counters are a complete census of channel
    traffic — this is what ``report.py``'s per-layer breakdown reads.
    Counter keys are interned up front; the dispatch path runs on every
    simulated page so it must not rebuild f-strings per call.
    """

    __slots__ = ("counts", "depth", "count_keys", "byte_keys")

    def __init__(self, layer: "BaseLayer") -> None:
        #: The world's counts, resolved once: dispatch() runs per channel
        #: op, and the counters object is fixed for the layer's lifetime.
        #: dispatch() increments the counts inline, as the
        #: ``@operation`` wrapper does.
        self.counts = layer.world.counters.counts
        #: Number of layers below this one in its stack (0 = bottom);
        #: maintained by :meth:`BaseLayer.stack_on`.
        self.depth = 0
        fs = layer.fs_type()
        self.count_keys: Dict[str, str] = {
            op: sys.intern(f"{fs}.{op}") for op in PAGER_OPS + CACHE_OPS
        }
        self.byte_keys: Dict[str, str] = {
            op: sys.intern(f"{fs}.{op}.bytes") for op in PAGER_OPS + CACHE_OPS
        }

    def dispatch(self, op: str, size: Optional[int], fn, *args):
        """Count channel op ``op`` and run ``fn(*args)``.

        The op is counted under ``<layer>.<op>``, with ``size`` bytes
        under ``<layer>.<op>.bytes``.  A request-sized op is counted
        first, so one that raises is still counted; ``size`` None means
        result-sized: counted after the call, with the bytes it
        returned.
        """
        if size is None:
            result = fn(*args)
            size = bytes_in(result)
            fn = None
        counts = self.counts
        key = self.count_keys[op]
        counts[key] = counts.get(key, 0) + 1
        if size:
            byte_key = self.byte_keys[op]
            counts[byte_key] = counts.get(byte_key, 0) + size
        return result if fn is None else fn(*args)


class ChannelOps:
    """The dispatch spine: one method per channel operation.

    The defaults implement a *coherent pass-through*: holder bookkeeping
    for the channels above (recalls, write-denials, invalidations fan
    out to upstream caches) and forwarding to the channel below.
    DFS — the paper's remote-forwarding layer — is exactly this table
    with no overrides.

    Layers that transform data (COMPFS, CRYPTFS) or that cache it (the
    coherency layer) override the pager-side ops they change and keep
    the rest.  Two conveniences keep those overrides small:

    * a layer that overrides :meth:`page_in` receives a ranged page-in
      through the same override — the window, clamped to the file
      (:meth:`data_length`), as its size — and :meth:`page_out` is
      holder bookkeeping followed by the layer's own
      :meth:`BaseLayer.merge_recovered`, one page or a whole run — so a
      transform layer writes one decode and one encode;
    * the cache side is a template no layer overrides: over the range of
      the layer's pages that :meth:`stale_above` names, the holders above
      first, then the :meth:`give_back` / :meth:`forget` hook on the
      layer's own store (``state.store``; None or no holder table, and
      the step is skipped).
    """

    def __init__(self, layer: "BaseLayer") -> None:
        self.layer = layer

    # --------------------------------------------------------------- helpers
    def state(self, source_key: Hashable) -> Any:
        return self.layer.state_by_source(source_key)

    def requester(self, source_key: Hashable, pager_object) -> Optional[Channel]:
        """The upstream channel this pager object serves, or None."""
        return self.layer.channels.serving(source_key, pager_object)

    def region(self):
        """Compound region for a holder fan-out when batching is on."""
        return self.layer.fanout_region()

    def down(self, state) -> PagerObject:
        """The downstream pager object, binding below on first use."""
        self.layer.ensure_down(state)
        return state.down_channel.pager_object

    def data_length(self, state) -> int:
        """File size used to clamp ranged page-ins."""
        return state.under_file.get_length()

    def clamp_window(self, state, offset: int, min_size: int, max_size: int) -> int:
        """The paper's ranged page-in contract: at least ``min_size``
        (the fault), at most ``max_size`` (the window), never past EOF
        except to satisfy the minimum."""
        return max(0, min(max_size, max(min_size, self.data_length(state) - offset)))

    def merge_recovered(self, state, recovered: Dict[int, bytes]) -> None:
        """Dispose of dirty pages recalled from upstream holders (the
        layer's :meth:`BaseLayer.merge_recovered`)."""
        self.layer.merge_recovered(state, recovered)

    def admit(self, state, pager_object, offset, size, access) -> Dict[int, bytes]:
        """Page-in admission, the pager's half of every page-in: make it
        legal for the requesting channel to hold the range with
        ``access`` — conflicting holders flush or downgrade, inside one
        fan-out region — then merge what they gave back.  Returns the
        recalled pages (already merged)."""
        requester = self.requester(state.source_key, pager_object)
        with self.region():
            recovered = state.holders.acquire(requester, offset, size, access)
        self.merge_recovered(state, recovered)
        return recovered

    def writeback_bookkeeping(
        self, state, requester: Optional[Channel], offset: int, size: int, retain
    ) -> None:
        """Holder-table update for an upstream write-back.  ``retain``
        encodes the wire op: None (page_out — caller keeps nothing),
        READ_ONLY (write_out), READ_WRITE (sync — caller stays writer)."""
        if requester is None:
            return
        if retain is None:
            state.holders.forget_range(requester, offset, size)
        elif retain is AccessRights.READ_ONLY:
            state.holders.record(requester, offset, size, AccessRights.READ_ONLY)
        else:
            recovered = state.holders.acquire(
                requester, offset, size, AccessRights.READ_WRITE
            )
            self.merge_recovered(state, recovered)

    # ----------------------------------------------------------- pager side
    def page_in(self, source_key, pager_object, offset, size, access) -> bytes:
        state = self.state(source_key)
        self.admit(state, pager_object, offset, size, access)
        # Fetch below with the client's access mode so the layer below
        # runs its own coherency against its other holders.
        return self.down(state).page_in(offset, size, access)

    def page_in_range(
        self, source_key, pager_object, offset, min_size, max_size, access
    ) -> bytes:
        state = self.state(source_key)
        size = self.clamp_window(state, offset, min_size, max_size)
        if size == 0:
            return b""
        if type(self).page_in is not ChannelOps.page_in:
            # The layer transforms or caches page-ins: the window is
            # served like any other size, through its override, rather
            # than forwarded as a range the layer never sees.
            return self.page_in(source_key, pager_object, offset, size, access)
        self.admit(state, pager_object, offset, size, access)
        return self.down(state).page_in_range(offset, min_size, size, access)

    def page_out(self, source_key, pager_object, offset, size, data, retain) -> None:
        state = self.state(source_key)
        # A sync registers the client as writer of these blocks (flushing
        # any other holder first); the incoming data supersedes what
        # they held, so it is merged last.
        with self.region():
            self.writeback_bookkeeping(
                state, self.requester(source_key, pager_object), offset, size, retain
            )
        # A layer with no cache sends a run below as one call, so a run
        # stays a run down to the disk layer; a caching layer installs
        # it or writes it through.
        self.merge_recovered(state, split_pages(offset, size, data))

    def synced(self, source_key) -> None:
        """Hook: a pager ``sync`` has written its last run.  Where the
        layer makes what the sync wrote durable; nothing to do for a
        layer that keeps no medium of its own."""

    def attr_page_in(self, source_key, pager_object) -> FileAttributes:
        return self.state(source_key).under_file.get_attributes()

    def attr_write_out(self, source_key, pager_object, attrs) -> None:
        state = self.state(source_key)
        self.layer.ensure_down(state)
        pager = self.layer.down_fs_pager(state.down_channel)
        if pager is not None:
            pager.attr_write_out(attrs)

    # ----------------------------------------------------------- cache side
    # Invoked by the layer below, with a range of the channel's bytes.
    # Each entry point turns it into the range of the layer's own pages
    # (the ``stale_above`` hook), first does to the holders above what
    # the op requires over it, and only then calls one of two hooks on
    # the layer's own store: ``give_back`` after a recall, ``forget``
    # after a change below.  A layer overrides the hooks, never an entry
    # point, so none can answer for its holders without asking them.
    def holders_above(self, state):
        """The holder table a cache-side op acts on first; None when the
        layer keeps none."""
        return state.holders

    def _recall(self, state, offset, size, access, keep) -> Dict[int, bytes]:
        """Take the range back from the holders above — everything
        (``access`` READ_WRITE), the right to write (READ_ONLY) or only
        the latest copy (None) — then :meth:`give_back`."""
        offset, size = self.stale_above(state, offset, size)
        recovered = {}
        holders = self.holders_above(state)
        if holders is not None:
            with self.region():
                if access is None:
                    recovered = holders.collect_latest(offset, size)
                else:
                    recovered = holders.acquire(None, offset, size, access)
        return self.give_back(state, offset, size, recovered, keep)

    def _invalidate_above(self, state, offset, size) -> None:
        holders = self.holders_above(state)
        if holders is not None:
            with self.region():
                holders.invalidate(offset, size)

    def stale_above(self, state, offset, size) -> Tuple[int, int]:
        """Hook: the range of the layer's pages — its holders' above and
        its own store's — derived from ``[offset, offset + size)`` of the
        channel's bytes: what a change there leaves stale and what a
        recall of them takes back.  The same range, for a layer whose
        pages are those bytes or a page-for-page transform of them."""
        return offset, size

    def flush_back(self, state, offset, size) -> Dict[int, bytes]:
        return self._recall(state, offset, size, AccessRights.READ_WRITE, None)

    def deny_writes(self, state, offset, size) -> Dict[int, bytes]:
        return self._recall(
            state, offset, size, AccessRights.READ_ONLY, AccessRights.READ_ONLY
        )

    def write_back(self, state, offset, size) -> Dict[int, bytes]:
        return self._recall(state, offset, size, None, AccessRights.READ_WRITE)

    def delete_range(self, state, offset, size) -> None:
        offset, size = self.stale_above(state, offset, size)
        self._invalidate_above(state, offset, size)
        self.forget(state, offset, size)

    def zero_fill(self, state, offset, size) -> None:
        offset, size = self.stale_above(state, offset, size)
        self._invalidate_above(state, offset, size)
        self.forget(state, offset, size, b"")

    def populate(self, state, offset, size, access, data) -> None:
        # The pager pushes the file as it is: nothing above goes stale.
        self.forget(state, offset, size, data, access)

    def destroy_cache(self, state) -> None:
        state.down_channel = None  # the pager below has let it go
        state.purge()

    def give_back(self, state, offset, size, recovered, keep) -> Dict[int, bytes]:
        """Hook: answer a recall with the layer's own store.  The pages
        the holders gave back (``recovered``) are installed as modified,
        the modified pages of the range collected, and the range settled
        for what the layer keeps of it: nothing (``keep`` None: dropped),
        a read-only copy (downgraded, clean) or the pages (clean).
        Returns them as the layer below stores them — the pages the
        cache's ``encode`` makes of them, when it has one.  With no
        store, ``recovered`` as is."""
        store = state.store
        if store is None:
            return recovered
        store.install_modified(recovered)
        if state.cache.encode is None:
            modified = store.collect_modified(offset, size)
        else:
            modified = state.cache.encode(store.dirty_indices(offset, size))
        if keep is None:
            store.drop_range(offset, size)
        else:
            if keep is AccessRights.READ_ONLY:
                store.downgrade_range(offset, size)
            store.clean_range(offset, size)
        return modified

    def forget(self, state, offset, size, data=None, access=None) -> None:
        """Hook: the layer below deleted the range (``data`` None),
        zero-filled it (no ``access``) or populated it with ``data`` in
        ``access``.  A store that holds the channel's bytes does the same.
        A store of pages derived from them (the cache has a ``decode``)
        keeps its pages of a populated range, which are derived from the
        same bytes; after a delete or a zero-fill it drops its clean pages
        of the range, and its dirty ones go below over the change on the
        next write-back."""
        store = state.store
        if store is None:
            return
        if state.cache.decode is not None:
            if access is None:
                store.drop_range(offset, size, keep_dirty=True)
        elif data is None:
            store.drop_range(offset, size)
        elif access is None:
            store.zero_range(offset, size)
        else:
            store.populate(offset, size, data, access)

    def invalidate_attributes(self, state) -> None:
        # Upstream attribute caches must drop their copies.
        self.layer.invalidate_upstream_attrs(state)

    def write_back_attributes(self, state) -> Optional[FileAttributes]:
        return None


class LayerPagerObject(FsPager):
    """The pager's end of a channel, dispatching into the owning layer's
    :class:`ChannelOps` table.

    One exists per (source file, cache manager) channel; ``source_key``
    identifies the file inside the layer.  The ``@operation`` methods
    here are the single choke-point where invocation costs are charged
    and per-layer telemetry is recorded.
    """

    def __init__(self, domain, layer: "BaseLayer", source_key: Hashable) -> None:
        super().__init__(domain)
        self.layer = layer
        self.source_key = source_key
        # The layer's dispatch table and telemetry runtime are fixed for
        # its lifetime; resolving them at channel setup keeps the per-op
        # hot path to two attribute loads instead of four.
        self.runtime = layer.runtime
        self.ops = layer.ops

    @operation
    def page_in(self, offset: int, size: int, access: AccessRights) -> bytes:
        return self.runtime.dispatch(
            "page_in", size,
            self.ops.page_in, self.source_key, self, offset, size, access,
        )

    @operation
    def page_in_range(
        self, offset: int, min_size: int, max_size: int, access: AccessRights
    ) -> bytes:
        return self.runtime.dispatch(
            "page_in_range", None,
            self.ops.page_in_range,
            self.source_key, self, offset, min_size, max_size, access,
        )

    def _push(self, op: str, runs: Runs, retain: Optional[AccessRights]) -> None:
        """Dispatch each run of one write-back to the layer's ``page_out``,
        counted as ``op``; ``retain`` is the mode the caller keeps."""
        dispatch, page_out = self.runtime.dispatch, self.ops.page_out
        key = self.source_key
        for offset, size, data in runs:
            dispatch(op, size, page_out, key, self, offset, size, data, retain)

    @operation
    def page_out(self, runs: Runs) -> None:
        self._push("page_out", runs, None)

    @operation
    def write_out(self, runs: Runs) -> None:
        self._push("write_out", runs, AccessRights.READ_ONLY)

    @operation
    def sync(self, runs: Runs) -> None:
        self._push("sync", runs, AccessRights.READ_WRITE)
        self.ops.synced(self.source_key)

    @operation
    def done_with_pager_object(self) -> None:
        self.layer._channel_done(self.source_key, self)
        self.revoke()

    @operation
    def attr_page_in(self) -> FileAttributes:
        return self.runtime.dispatch(
            "attr_page_in", 0, self.ops.attr_page_in, self.source_key, self
        )

    @operation
    def attr_write_out(self, attrs: FileAttributes) -> None:
        self.runtime.dispatch(
            "attr_write_out", 0,
            self.ops.attr_write_out, self.source_key, self, attrs,
        )


class LayerFsCache(FsCache):
    """A layer's cache-manager end of its *downstream* channel.

    The lower pager invokes these to perform coherency actions against
    this layer's cached state for one file (``state`` is the layer's
    per-file record).  Like the pager side, every call dispatches into
    the layer's :class:`ChannelOps` table through the runtime.
    """

    def __init__(self, domain, layer: "BaseLayer", state: Any) -> None:
        super().__init__(domain)
        self.layer = layer
        self.state = state
        self.runtime = layer.runtime
        self.ops = layer.ops

    @operation
    def flush_back(self, offset: int, size: int) -> Dict[int, bytes]:
        return self.runtime.dispatch(
            "flush_back", None, self.ops.flush_back, self.state, offset, size
        )

    @operation
    def deny_writes(self, offset: int, size: int) -> Dict[int, bytes]:
        return self.runtime.dispatch(
            "deny_writes", None, self.ops.deny_writes, self.state, offset, size
        )

    @operation
    def write_back(self, offset: int, size: int) -> Dict[int, bytes]:
        return self.runtime.dispatch(
            "write_back", None, self.ops.write_back, self.state, offset, size
        )

    @operation
    def delete_range(self, offset: int, size: int) -> None:
        self.runtime.dispatch(
            "delete_range", size,
            self.ops.delete_range, self.state, offset, size,
        )

    @operation
    def zero_fill(self, offset: int, size: int) -> None:
        self.runtime.dispatch(
            "zero_fill", size, self.ops.zero_fill, self.state, offset, size
        )

    @operation
    def populate(
        self, offset: int, size: int, access: AccessRights, data: bytes
    ) -> None:
        self.runtime.dispatch(
            "populate", size,
            self.ops.populate, self.state, offset, size, access, data,
        )

    @operation
    def destroy_cache(self) -> None:
        self.runtime.dispatch(
            "destroy_cache", 0, self.ops.destroy_cache, self.state
        )

    @operation
    def invalidate_attributes(self) -> None:
        self.runtime.dispatch(
            "invalidate_attributes", 0,
            self.ops.invalidate_attributes, self.state,
        )

    @operation
    def write_back_attributes(self) -> Optional[FileAttributes]:
        return self.runtime.dispatch(
            "write_back_attributes", 0,
            self.ops.write_back_attributes, self.state,
        )

    @operation
    def held_blocks(self) -> Optional[Dict[int, Tuple[bool, bool]]]:
        """Re-declare this layer's cached pages to a recovering lower
        pager: what is in the state's page store
        (:attr:`LayerFileState.store`); a layer with no data cache of
        its own holds nothing."""
        store = self.state.store
        if store is None:
            return None
        return store.held_blocks()


class LayerFileState:
    """Generic per-file state a layer keeps for one underlying file.

    Layers subclass to add their caches (plaintext stores, attribute
    copies); the spine relies only on the attributes set here, and the
    default cache-side hooks on ``cache`` too — the :class:`LayerCache`
    that a ``store`` belongs to.  A layer that keeps no holder table
    (CFS) sets ``holders`` to None and the cache side skips the holders.
    """

    def __init__(self, layer: "BaseLayer", under_file: File) -> None:
        self.layer = layer
        self.under_file = under_file
        self.under_key = under_file.source_key
        self.source_key: Hashable = (layer.source_tag(), layer.oid, self.under_key)
        #: Upstream channels' coherency state (who caches what, how).
        self.holders = layer._make_holders()
        #: The layer's page store for this file — a caching layer's
        #: subclass sets it (and may know it by a name of its own);
        #: None: the layer keeps no data.
        self.store = None
        #: This layer as cache manager to the layer below.
        self.down_channel: Optional[Channel] = None
        self.down_pager: Optional[FsPager] = None

    def purge(self) -> None:
        """Drop everything before the underlying file is unlinked; the
        freed i-node may be reused and stale state must not leak."""
        if self.holders is not None:
            self.holders.invalidate(0, WHOLE_FILE)
        if self.down_channel is not None and not self.down_channel.closed:
            self.down_channel.close()
        self.down_channel = None
        self.down_pager = None


class LayerCache(SourceCache):
    """A layer's cache of one file of the layer below: the
    :class:`~repro.vm.source_cache.SourceCache` whose channel is the
    file state's downstream channel, bound below on first use.  The
    layer is the manager — its ``readahead_pages`` is the cache's
    knob."""

    __slots__ = ("state",)

    def __init__(self, layer: "BaseLayer", state: LayerFileState) -> None:
        super().__init__(layer, layer.fs_type())
        self.state = state

    def pager(self) -> PagerObject:
        state = self.state
        channel = state.down_channel
        if channel is None or channel.closed:
            self.manager.ensure_down(state)
            channel = state.down_channel
        return channel.pager_object


class LayerFile(File):
    """Generic open handle for a layer's file: each operation delegates
    to the layer's ``file_*`` hook (the layer writes the data hooks; the
    others default to forwarding to the underlying file).  ``bind``
    serves a channel from this layer."""

    def __init__(
        self, layer: "BaseLayer", state: LayerFileState, charge_open: bool = True
    ) -> None:
        super().__init__(layer.domain)
        self.layer = layer
        self.state = state
        self.source_key = state.source_key
        if charge_open:  # a listing's handle pays no open-state cost
            layer.world.charge.fs_open_state()

    @operation
    def bind(
        self,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        length: int,
    ) -> BindResult:
        return self.layer.bind_file(
            self.state, cache_manager, requested_access, offset, length
        )

    @operation
    def get_length(self) -> int:
        return self.layer.file_length(self.state)

    @operation
    def set_length(self, length: int) -> None:
        self.layer.file_set_length(self.state, length)

    @operation
    def read(self, offset: int, size: int) -> bytes:
        return self.layer.file_read(self.state, offset, size)

    @operation
    def write(self, offset: int, data: bytes) -> int:
        return self.layer.file_write(self.state, offset, data)

    @operation
    def get_attributes(self) -> FileAttributes:
        return self.layer.file_get_attributes(self.state)

    @operation
    def check_access(self, access: AccessRights) -> None:
        self.layer.file_check_access(self.state, access)

    @operation
    def sync(self) -> None:
        self.layer.file_sync(self.state)


class ForwardingFile(LayerFile):
    """Fully transparent handle: every operation — including ``bind`` —
    forwards straight to the underlying file, so the layer stays out of
    the page traffic entirely (the nullfs shape)."""

    @operation
    def bind(
        self,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        length: int,
    ) -> BindResult:
        self.layer.world.counters.inc(f"{self.layer.fs_type()}.bind_forwarded")
        return self.state.under_file.bind(
            cache_manager, requested_access, offset, length
        )

    @operation
    def get_length(self) -> int:
        return self.state.under_file.get_length()

    @operation
    def set_length(self, length: int) -> None:
        self.state.under_file.set_length(length)

    @operation
    def read(self, offset: int, size: int) -> bytes:
        return self.state.under_file.read(offset, size)

    @operation
    def write(self, offset: int, data: bytes) -> int:
        return self.state.under_file.write(offset, data)

    @operation
    def get_attributes(self) -> FileAttributes:
        return self.state.under_file.get_attributes()

    @operation
    def check_access(self, access: AccessRights) -> None:
        self.state.under_file.check_access(access)

    @operation
    def sync(self) -> None:
        self.state.under_file.sync()


class LayerNaming(NamingContext):
    """A layer's naming face, written once.

    The naming operations of a stacked layer run on two kinds of object:
    the layer root — a layer root *is* a directory of that layer, the
    one wrapping the root of the file system below — and the
    :class:`LayerDirectory` handles the layer gives out for everything
    deeper.  Both carry ``layer`` (on the root, the root itself) and
    ``under`` (the context the directory wraps), and the bodies use
    nothing else: resolution returns wrapped objects, mutation forwards
    below.  A layer that changes how names resolve overrides
    ``wrap_resolved`` and so changes it in both places; ``unbind`` purges
    the layer's state for the file (``purge_named``) before it unlinks
    below.
    """

    @operation
    def resolve(self, name: str) -> object:
        return self.layer.wrap_resolved(self.under.resolve(name))

    @operation
    def bind(self, name: str, obj: object) -> None:
        self.under.bind(name, obj)

    @operation
    def unbind(self, name: str) -> object:
        self.layer.purge_named(self.under, name)
        return self.under.unbind(name)

    @operation
    def rebind(self, name: str, obj: object) -> object:
        return self.under.rebind(name, obj)

    @operation
    def list_bindings(self):
        wrap = self.layer.wrap_resolved
        return [
            (name, wrap(obj, charge_open=False))
            for name, obj in self.under.list_bindings()
        ]

    @operation
    def create_file(self, name: str) -> File:
        return self.layer.wrap_resolved(self.under.create_file(name))

    @operation
    def create_dir(self, name: str) -> "LayerDirectory":
        layer = self.layer
        return layer.directory_class(layer, self.under.create_dir(name))

    @operation
    def rename(self, old_name: str, new_name: str) -> None:
        self.under.rename(old_name, new_name)


class LayerDirectory(LayerNaming):
    """A directory of ``layer`` below its root, wrapping the context
    ``under`` of the file system below."""

    def __init__(self, layer: "BaseLayer", under: NamingContext) -> None:
        super().__init__(layer.domain)
        self.layer = layer
        #: ``under_context`` is the name
        #: :meth:`~repro.naming.context.NamingContext.path_identity`
        #: follows wrapped chains by.
        self.under = self.under_context = under


class BaseLayer(LayerNaming, StackableFs, CacheManager, abc.ABC):
    """Shared implementation base for every file system layer.

    A minimal pass-through layer overrides nothing but ``fs_type``; the
    defaults give it a naming face (:class:`LayerNaming`, with the layer
    as the root directory) that wraps resolved files in
    :class:`ForwardingFile` handles, a :class:`ChannelOps` spine, and
    per-layer telemetry.  Transform layers customize three class
    attributes — ``ops_class``, ``file_class``, ``directory_class`` —
    and the ``file_*`` hooks.
    """

    #: How many file systems this layer type may be stacked on.
    max_under = 1
    #: Dispatch table class; layers override with their ChannelOps subclass.
    ops_class = ChannelOps
    #: Per-file state class (subclass of LayerFileState).
    state_class = LayerFileState
    #: Handle classes used by the generic naming face.
    file_class = ForwardingFile
    directory_class = LayerDirectory
    #: Access requested when binding below on first downstream use.
    down_access = AccessRights.READ_WRITE
    #: Tuning knobs, both off by default: calibration runs uncompounded
    #: and without read-ahead.  Set per layer, by assignment (DFS also
    #: takes ``compound`` as a keyword: two callers pass it).  ``compound``:
    #: batch per-holder coherency fan-out messages into one round trip
    #: per remote node (see :mod:`repro.ipc.compound`).
    #: ``readahead_pages``: sequential read-ahead window of the layer's
    #: per-file caches.
    compound = False
    readahead_pages = 0

    def __init__(self, domain) -> None:
        super().__init__(domain)
        #: The root is a directory of its own layer (:class:`LayerNaming`).
        self.layer = self
        self._under: List[StackableFs] = []
        #: Pager side: channels where *we* are the pager.
        self.channels = ChannelRegistry()
        #: Cache-manager side: downstream channels keyed by rights oid.
        self._down_channels_by_rights: Dict[int, Channel] = {}
        self._pending_bind_state: Any = None
        #: Per-file state, by underlying file key and by our source key.
        self._states: Dict[Hashable, Any] = {}
        self._states_by_source: Dict[Hashable, Any] = {}
        self.ops: ChannelOps = self.ops_class(self)
        self.runtime = LayerRuntime(self)

    def source_tag(self) -> str:
        """Tag used in this layer's source keys and channel labels."""
        return self.fs_type()

    def _make_holders(self):
        """Holder table for a new file state; None means the layer keeps
        no upstream coherency state of its own."""
        return make_holder_table(getattr(self, "protocol", "per_block"))

    def fanout_region(self):
        """A compound region around a holder fan-out when the layer's
        ``compound`` knob is on, else a no-op context."""
        if self.compound:
            return compound_region(self.world)
        return _NO_REGION

    # ------------------------------------------------------------- stacking
    @operation
    def stack_on(self, underlying: StackableFs) -> None:
        if narrow(underlying, StackableFs) is None:
            raise StackingError(
                f"{type(underlying).__name__} is not a stackable_fs"
            )
        if len(self._under) >= self.max_under:
            raise StackingError(
                f"{self.fs_type()} stacks on at most {self.max_under} "
                f"file system(s)"
            )
        self._under.append(underlying)
        if isinstance(underlying, BaseLayer):
            self.runtime.depth = max(
                self.runtime.depth, underlying.runtime.depth + 1
            )
        else:
            self.runtime.depth = max(self.runtime.depth, 1)

    @operation
    def under_layers(self) -> List[StackableFs]:
        return list(self._under)

    @property
    def under(self) -> StackableFs:
        """The single underlying layer (raises if not stacked yet)."""
        if not self._under:
            raise StackingError(f"{self.fs_type()} is not stacked on anything")
        return self._under[0]

    # ---------------------------------------------------- pager-side binding
    def bind_file(
        self,
        state: Any,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        length: int,
    ) -> BindResult:
        """Default ``bind`` behaviour for this layer's files: serve a
        channel from this layer.  (The downstream channel is established
        lazily, on first fault; layers that must participate in the
        lower layer's coherency from the start — DFS — call
        :meth:`ensure_down` before this.)"""
        return self.bind_source(
            state.source_key,
            cache_manager,
            requested_access,
            offset,
            label=f"{self.source_tag()}:{state.under_key}",
        )

    def bind_source(
        self,
        source_key: Hashable,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        label: str,
    ) -> BindResult:
        """Implements ``bind`` for one of this layer's files: find or
        create the channel for (file, cache manager) and hand back its
        cache-rights object."""
        self.world.charge.bind()
        channel, created = self.channels.get_or_create(
            source_key,
            cache_manager,
            lambda: self._make_pager_object(source_key),
            label,
        )
        if created:
            self.world.counters.inc(f"{self.fs_type()}.channel_created")
        return BindResult(channel.cache_rights, offset)

    def _make_pager_object(self, source_key: Hashable) -> LayerPagerObject:
        return LayerPagerObject(self.domain, self, source_key)

    def _channel_done(self, source_key: Hashable, pager_object) -> None:
        """An upstream cache manager closed its channel end."""
        channel = self.channels.serving(source_key, pager_object)
        if channel is not None:
            channel.closed = True
            self.channels.forget(source_key, channel)
            self._on_channel_closed(source_key, channel)

    def _on_channel_closed(self, source_key: Hashable, channel: Channel) -> None:
        """Hook: an upstream channel went away.  The default drops the
        departing holder from the file's coherency state."""
        state = self._states_by_source.get(source_key)
        holders = getattr(state, "holders", None) if state is not None else None
        if holders is not None:
            holders.forget_range(channel, 0, WHOLE_FILE)

    # ------------------------------------------------- cache-manager side
    @operation
    def accept_channel(self, pager_object: PagerObject, label: str) -> Channel:
        """Complete a downstream bind we initiated: build our fs_cache and
        cache-rights ends for the file state recorded by
        :meth:`bind_below`."""
        state = self._pending_bind_state
        if state is None:
            raise StackingError(
                f"{self.fs_type()}: unsolicited accept_channel for {label!r}"
            )
        cache_object = LayerFsCache(self.domain, self, state)
        rights = CacheRights(self.domain, label)
        channel = Channel(pager_object, cache_object, rights, label)
        rights.channel = channel
        self._down_channels_by_rights[rights.oid] = channel
        return channel

    def bind_below(self, state: Any, under_file, access: AccessRights) -> Channel:
        """Act as a cache manager for ``under_file`` (paper sec. 4.2):
        bind to it, exchanging fs_cache/fs_pager objects, and return the
        downstream channel."""
        self._pending_bind_state = state
        try:
            result = under_file.bind(self, access, 0, under_file.get_length())
        finally:
            self._pending_bind_state = None
        channel = self._down_channels_by_rights.get(result.rights.oid)
        if channel is None:
            raise StackingError(
                f"{self.fs_type()}: bind returned rights we did not issue"
            )
        return channel

    def ensure_down(self, state: Any) -> bool:
        """Establish the downstream channel (this layer as cache manager
        to the layer below) on first use.  Returns False from overrides
        that decline (CRYPTFS's degraded mode, COMPFS uncoherent)."""
        if state.down_channel is not None and not state.down_channel.closed:
            return True
        state.down_channel = self.bind_below(state, state.under_file, self.down_access)
        state.down_pager = self.down_fs_pager(state.down_channel)
        return True

    def down_fs_pager(self, channel: Channel) -> Optional[FsPager]:
        """Narrow the downstream pager object to fs_pager; None means the
        lower side is a plain storage pager (paper sec. 4.3)."""
        return narrow(channel.pager_object, FsPager)

    # ------------------------------------------------------- per-file state
    def _state_for(self, under_file: File) -> Any:
        state = self._states.get(under_file.source_key)
        if state is None:
            state = self._adopt_state(self.state_class(self, under_file))
        return state

    def _adopt_state(self, state: Any) -> Any:
        """Enter a new file state in both registries."""
        self._states[state.under_key] = state
        self._states_by_source[state.source_key] = state
        return state

    def state_by_source(self, source_key: Hashable) -> Any:
        state = self._states_by_source.get(source_key)
        if state is None:
            raise FsError(f"no file state for {source_key!r}")
        return state

    def purge_named(self, under_context, name: str) -> None:
        """Drop per-file state before an unlink; the freed i-node may be
        reused and stale cached state must not leak into the new file."""
        try:
            obj = under_context.resolve(name)
        except Exception:
            return
        under_file = narrow(obj, File)
        if under_file is not None:
            self._purge_state(under_file.source_key)

    def _purge_state(self, under_key: Hashable) -> None:
        state = self._states.pop(under_key, None)
        if state is None:
            return
        self._states_by_source.pop(state.source_key, None)
        state.purge()

    # ------------------------------------------------------- data movement
    # The cache manager's half of every file operation: before this
    # layer acts on a range, take back what the holders above have that
    # it lacks (or may no longer keep), and fold that in.
    def recall(
        self,
        state: Any,
        offset: int,
        size: int,
        access: Optional[AccessRights] = None,
    ) -> Dict[int, bytes]:
        """Recall ``[offset, offset + size)`` from the upstream holders
        and merge what comes back.  With no ``access`` the layer only
        reads: holders keep their pages and hand over the latest copy.
        With ``access`` the layer itself takes the range in that mode,
        so conflicting holders flush and give it up.  Returns the
        recalled pages (already merged).  With no holder above there is
        nobody to reach: no fan-out, nothing to merge."""
        holders = state.holders
        if not holders.any_holder():
            return {}
        with self.fanout_region():
            if access is None:
                recovered = holders.collect_latest(offset, size)
            else:
                recovered = holders.acquire(None, offset, size, access)
        self.merge_recovered(state, recovered)
        return recovered

    def recall_for_shrink(self, state: Any, length: int, old_length: int) -> None:
        """The holders' side of a truncate from ``old_length`` down to
        ``length``: recall the boundary page from any dirty holder (its
        head, below the new length, survives), then invalidate
        everything above the new length."""
        with self.fanout_region():
            if length % PAGE_SIZE:
                boundary = length - length % PAGE_SIZE
                self.merge_recovered(
                    state,
                    state.holders.acquire(
                        None, boundary, PAGE_SIZE, AccessRights.READ_WRITE
                    ),
                )
            state.holders.invalidate(length, old_length - length)

    def merge_recovered(self, state: Any, recovered: Dict[int, bytes]) -> None:
        """Dispose of dirty pages recalled from upstream holders.  A
        layer with no cache of its own pushes them straight below;
        caching layers install them instead."""
        self.push_recovered(state, recovered)

    def push_recovered(self, state: Any, recovered: Dict[int, bytes]) -> None:
        """Push recalled pages toward storage: down the channel, one
        page-out per contiguous run."""
        for start, count in index_runs(sorted(recovered)):
            chunks = [recovered[index] for index in range(start, start + count)]
            self.ops.down(state).page_out([(
                start * PAGE_SIZE, count * PAGE_SIZE,
                chunks[0] if count == 1 else b"".join(chunks),
            )])

    def invalidate_upstream_attrs(
        self, state: Any, exclude: Optional[Channel] = None
    ) -> None:
        """Tell every upstream attribute cache to drop its copy."""
        if state.source_key not in self.channels:
            return  # nobody above to tell
        with self.fanout_region():
            for channel in self.channels.channels_for(state.source_key):
                if channel is exclude:
                    continue
                fs_cache = narrow(channel.cache_object, FsCache)
                if fs_cache is not None:
                    fs_cache.invalidate_attributes()

    # ------------------------------------------------------------ naming face
    def wrap_resolved(self, obj: object, charge_open: bool = True) -> object:
        """Wrap an object resolved below in this layer's handle types.
        ``charge_open`` pays the open-protocol costs (access check +
        attribute fetch); listing entries skips them."""
        under_file = narrow(obj, File)
        if under_file is not None:
            attrs = None
            if charge_open:
                under_file.check_access(AccessRights.READ_ONLY)
                attrs = under_file.get_attributes()
            state = self._state_for(under_file)
            self._on_open(state, attrs)
            return self.file_class(self, state, charge_open)
        under_context = narrow(obj, NamingContext)
        if under_context is not None:
            return self.directory_class(self, under_context)
        return obj

    def _on_open(self, state: Any, attrs: Optional[FileAttributes]) -> None:
        """Hook: a handle is being created; ``attrs`` carries the
        open-time attribute fetch when one was paid for."""

    # ------------------------------------------------------------ file hooks
    # The defaults forward to the underlying file.  The data hooks —
    # ``file_read``, ``file_write``, ``file_set_length`` — have none: a
    # layer whose handles are LayerFiles serves channels, so each of them
    # recalls from the holders above first (:meth:`recall`) and says what
    # the layer does with the data.
    def file_length(self, state: Any) -> int:
        return state.under_file.get_length()

    def file_get_attributes(self, state: Any) -> FileAttributes:
        self.world.charge.fs_attr_copy()
        return state.under_file.get_attributes()

    def file_check_access(self, state: Any, access: AccessRights) -> None:
        self.world.charge.fs_access_check()

    def file_sync(self, state: Any) -> None:
        state.under_file.sync()

    # ------------------------------------------------------------ fs interface
    @operation
    def sync_fs(self) -> None:
        self._sync_impl()
        for under in self._under:
            under.sync_fs()

    def _sync_impl(self) -> None:
        """Hook: flush this layer's own caches."""


class _FileInterfacePager:
    """The two pager operations a transform layer's cache needs, over the
    plain file interface of a file it keeps no channel to (the layer
    below refused it, or the layer declines one)."""

    def __init__(self, under_file: File) -> None:
        self.under_file = under_file

    def page_in(self, offset: int, size: int, access: AccessRights) -> bytes:
        return self.under_file.read(offset, size)

    def sync(self, runs: Runs) -> None:
        for offset, size, data in runs:
            usable = min(size, max(0, self.under_file.get_length() - offset))
            if usable:
                self.under_file.write(offset, data[:usable])


class TransformCache(LayerCache):
    """The cache of a transform layer's file: its own pages, made by the
    subclass's ``decode`` of what crosses the channel and pushed back as
    its ``encode`` of them.  When the layer has no channel below the
    source and sink is the plain file interface — no read-ahead window,
    a dirty run is one ``write`` — and none of the lower layer's
    coherency actions reach this cache."""

    __slots__ = ()

    def pager(self):
        state = self.state
        if self.manager.ensure_down(state):
            return state.down_channel.pager_object
        self.readahead_override = 0  # the file interface has no ranged read
        return _FileInterfacePager(state.under_file)


class TransformFileState(LayerFileState):
    """A transform layer's file: its cache (the layer's ``cache_class``)
    over the file below."""

    def __init__(self, layer: "TransformLayer", under_file: File) -> None:
        super().__init__(layer, under_file)
        self.cache = layer.cache_class(layer, self)
        self.store = self.cache.store
        #: True once the lower layer refused the writable bind (mirrorfs):
        #: the plain file interface is used instead of a channel.
        self.channel_refused = False
        #: The file's length as last seen — at open, by a file operation
        #: of the layer — or None once the layer below said its
        #: attributes changed.  A page-in clamps at it.
        self.length: Optional[int] = None
        #: True while a length change waits for the next sync (a layer
        #: that writes back on sync): ``length`` is the file's length
        #: and the length below is the old one.
        self.resized = False

    def purge(self) -> None:
        super().purge()
        self.store.clear()


class TransformOps(ChannelOps):
    """A transform layer's pager side: page-ins decoded out of the cache,
    lengths and attributes in the layer's own terms.  The cache side is
    the spine's template: a recall takes the pages back from the holders
    above and returns the cache's ``encode`` of them, and a change below
    drops the clean pages derived from the range."""

    def data_length(self, state) -> int:
        return self.layer.file_length(state)

    def page_in(self, source_key, pager_object, offset, size, access) -> bytes:
        state = self.state(source_key)
        self.admit(state, pager_object, offset, size, access)
        # Past EOF the layer below holds no encoding of anything: nothing
        # there is decoded, the page-in is short instead.
        length = state.length
        if length is None:
            length = self.layer.file_length(state)
        size = min(size, length - offset)
        if size <= 0:
            return b""
        state.cache.prefetch(offset, size, access)
        return state.store.read(offset, size, state.cache.fault, access)

    def attr_page_in(self, source_key, pager_object) -> FileAttributes:
        attrs = super().attr_page_in(source_key, pager_object)
        attrs.size = self.layer.seen_length(self.state(source_key), attrs.size)
        return attrs

    def attr_write_out(self, source_key, pager_object, attrs) -> None:
        state = self.state(source_key)
        if attrs.size != self.layer.file_length(state):
            self.layer.file_set_length(state, attrs.size)

    def invalidate_attributes(self, state) -> None:
        state.length = None  # fetched again when next needed


class TransformLayer(BaseLayer):
    """A layer whose file is a transform of one file below, cached by a
    :class:`TransformCache` per file.  A subclass names its cache class
    and, when the transform changes lengths, the map between its file's
    length and the length below (``plain_length`` / ``stored_length``;
    the identity here).

    With ``coherent`` the layer keeps a channel below — so the lower
    layer's coherency actions reach its cache — and writes every change
    through at once; in coherent mode no dirty page outlives the file
    operation that made it.  Without it (COMPFS case 1) the layer goes
    through the plain file interface and writes back on ``sync``: a
    length change too waits for it, so until then the file below is as
    it was.
    """

    ops_class = TransformOps
    state_class = TransformFileState
    file_class = LayerFile
    cache_class = TransformCache
    coherent = True

    @staticmethod
    def plain_length(stored: int) -> int:
        """This layer's file length, given the length of the file below."""
        return stored

    @staticmethod
    def stored_length(plain: int) -> int:
        """The length below that holds a file of ``plain`` bytes."""
        return plain

    def ensure_down(self, state: TransformFileState) -> bool:
        """Establish the channel below on first use.  A layer that
        refuses the writable bind (mirrorfs) leaves the transform on the
        plain file interface — still correct, but the lower layer's
        coherency actions no longer reach the cache."""
        if not self.coherent:
            return False
        if state.down_channel is not None and not state.down_channel.closed:
            return True
        if state.channel_refused:
            return False
        try:
            return super().ensure_down(state)
        except FsError:
            state.channel_refused = True
            self.world.counters.inc(f"{self.fs_type()}.bind_refused")
            return False

    def seen_length(self, state: TransformFileState, stored: int) -> int:
        """The file's length, given ``stored``, the length below as just
        read; a length that waits for sync stands."""
        if not state.resized:
            state.length = self.plain_length(stored)
        return state.length

    def _on_open(self, state: TransformFileState, attrs) -> None:
        if attrs is not None:
            self.seen_length(state, attrs.size)

    def file_length(self, state: TransformFileState) -> int:
        if not state.resized:
            state.length = self.plain_length(state.under_file.get_length())
        return state.length

    def file_get_attributes(self, state: TransformFileState) -> FileAttributes:
        attrs = super().file_get_attributes(state)
        attrs.size = self.seen_length(state, attrs.size)
        return attrs

    def _set_length(self, state: TransformFileState, length: int) -> None:
        """Make ``length`` the file's length: below at once when the
        layer writes through, else with the data on the next sync."""
        state.length = length
        if self.coherent:
            state.under_file.set_length(self.stored_length(length))
        else:
            state.resized = True

    def file_read(self, state: TransformFileState, offset: int, size: int) -> bytes:
        self.world.charge.fs_read_cpu()
        file_size = self.file_length(state)
        if offset >= file_size:
            return b""
        size = min(size, file_size - offset)
        self.recall(state, offset, size)
        state.cache.prefetch(offset, size, AccessRights.READ_ONLY)
        data = state.store.read(offset, size, state.cache.fault)
        self.world.charge.memcpy(size)
        return data

    def _extend(self, state: TransformFileState, old: int, new: int) -> None:
        """Grow the file (:meth:`_set_length`) and make the new range
        read as zeros.  What the extension creates below is no encoding
        of zeros, so the zero pages are recorded dirty and their
        encoding goes down on the next flush."""
        first, within = divmod(old, PAGE_SIZE)
        store = state.store
        page = store.get(first)
        if within and (page is None or page.rights is not AccessRights.READ_WRITE):
            # Faulted writable before the file grows: a fault that fails
            # leaves the length as it was, and no later upgrade fault
            # replaces the zeros below.
            state.cache.fault(first, AccessRights.READ_WRITE)
        self._set_length(state, new)
        if within:
            # The old last page keeps its head and is zero from there on
            # (fetched again: growing below may have recalled it).
            page = store.get(first)
            if page is None:
                page = state.cache.fault(first, AccessRights.READ_WRITE)
            page.data[within:] = bytes(PAGE_SIZE - within)
            store.set_dirty(first, True)
            first += 1
        for index in range(first, (new - 1) // PAGE_SIZE + 1):
            store.install(index, b"", AccessRights.READ_WRITE, dirty=True)

    def file_write(self, state: TransformFileState, offset: int, data: bytes) -> int:
        self.world.charge.fs_write_cpu()
        if offset < 0:  # refused before _extend can grow the file for it
            raise OutOfRangeError(f"negative offset {offset}")
        self.recall(state, offset, len(data), AccessRights.READ_WRITE)
        end = offset + len(data)
        start = offset
        old = self.file_length(state)
        if end > old:
            self._extend(state, old, end)
            start = min(offset, old)
        state.cache.prefetch(offset, len(data), AccessRights.READ_WRITE, upgrade=True)
        state.store.write(offset, data, state.cache.fault)
        self.world.charge.memcpy(len(data))
        if self.coherent:
            self._flush_range(state, start, end - start)
        return len(data)

    def _flush_range(self, state: TransformFileState, offset: int, size: int) -> None:
        """Encode and push the dirty pages of the range below: every
        contiguous run in one sync."""
        state.cache.write_back(state.store.dirty_indices(offset, size), "sync")

    def file_set_length(self, state: TransformFileState, length: int) -> None:
        old = self.file_length(state)
        if length < old:
            self.recall_for_shrink(state, length, old)
            state.store.truncate_to(length)
            self._set_length(state, length)
        elif length > old:
            self._extend(state, old, length)
            if self.coherent:
                self._flush_range(state, old, length - old)

    def _flush(self, state: TransformFileState) -> None:
        """Push all the file has that waits: its length, then its
        dirty pages."""
        if state.resized:
            state.under_file.set_length(self.stored_length(state.length))
            state.resized = False
        self._flush_range(state, 0, self.file_length(state))

    def file_sync(self, state: TransformFileState) -> None:
        self._flush(state)
        state.under_file.sync()

    def _sync_impl(self) -> None:
        for state in self._states.values():
            self._flush(state)

    def merge_recovered(
        self, state: TransformFileState, recovered: Dict[int, bytes]
    ) -> None:
        if not recovered:
            return
        state.store.install_modified(recovered)
        if self.coherent:
            first = min(recovered)
            last = max(recovered)
            self._flush_range(
                state, first * PAGE_SIZE, (last - first + 1) * PAGE_SIZE
            )
