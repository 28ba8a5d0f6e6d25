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
  encode/decode, CRYPTFS's seal/unseal, the coherency layer's recall
  policy;
* :class:`LayerRuntime` — uniform telemetry at the dispatch choke-point:
  every dispatched op increments a standardized ``<layer>.<op>`` counter
  (plus ``<layer>.<op>.bytes`` when data moves) and, when tracing is on,
  emits a ``layer`` trace span carrying the layer name, stack depth, and
  range;
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
* :class:`RecoveringLayer` — the base of the layers that serve clients
  on other machines (DFS, the sharded DFS): their holder tables are
  volatile and are rebuilt from the surviving clients after a crash.
"""

from __future__ import annotations

import abc
import contextlib
import sys
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.errors import FsError, StackingError
from repro.ipc.compound import compound_region
from repro.ipc.invocation import bytes_in, operation
from repro.ipc.narrow import narrow
from repro.naming.context import NamingContext
from repro.types import PAGE_SIZE, AccessRights, page_range
from repro.vm.cache_object import FsCache
from repro.vm.channel import BindResult, CacheRights, Channel
from repro.vm.memory_object import CacheManager
from repro.vm.page import index_runs
from repro.vm.pager_object import FsPager, PagerObject
from repro.vm.pager_base import ChannelRegistry
from repro.vm.source_cache import SourceCache, write_run

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

    __slots__ = (
        "layer",
        "world",
        "_inc",
        "depth",
        "count_keys",
        "byte_keys",
    )

    def __init__(self, layer: "BaseLayer") -> None:
        self.layer = layer
        #: The layer's world and its counter-increment method, resolved
        #: once: dispatch() runs per channel op, and the world/counters
        #: objects are fixed for the layer's lifetime.
        self.world = layer.world
        self._inc = self.world.counters.inc
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

    def dispatch(
        self, op: str, offset: Optional[int], size: Optional[int], fn, *args
    ):
        """Count channel op ``op`` and run ``fn(*args)``.

        The op is counted under ``<layer>.<op>``, with ``size`` bytes
        under ``<layer>.<op>.bytes``, and traced when tracing is on.  A
        request-sized op is counted first, so one that raises is still
        counted; ``size`` None means result-sized: counted after the
        call, with the bytes it returned.
        """
        world = self.world
        key = self.count_keys[op]
        if size is not None:
            self._inc(key)
            if size:
                self._inc(self.byte_keys[op], size)
            if world.tracer is not None:
                self._trace(key, offset, size)
        result = fn(*args)
        if size is None:
            size = bytes_in(result)
            self._inc(key)
            if size:
                self._inc(self.byte_keys[op], size)
            if world.tracer is not None:
                self._trace(key, offset, size)
        return result

    def _trace(self, key: str, offset: Optional[int], size: int) -> None:
        self.world.trace(
            "layer", key, layer=self.layer.fs_type(), depth=self.depth,
            offset=offset, size=size,
        )


class ChannelOps:
    """The dispatch spine: one method per channel operation.

    The defaults implement a *coherent pass-through*: holder bookkeeping
    for the channels above (recalls, write-denials, invalidations fan
    out to upstream caches) and forwarding to the channel below.
    DFS — the paper's remote-forwarding layer — is exactly this table
    with no overrides.

    Layers that transform data (COMPFS, CRYPTFS) or that cache it (the
    coherency layer) override the ops they change and keep the rest.
    Two conveniences keep those overrides small:

    * a layer that overrides :meth:`page_in` receives a ranged page-in
      through the same override — the window, clamped to the file
      (:meth:`data_length`), as its size — and :meth:`page_out` is
      holder bookkeeping followed by the layer's own
      :meth:`BaseLayer.merge_recovered`, one page or a whole run — so a
      transform layer writes one decode and one encode;
    * the cache-side defaults no-op gracefully when the layer keeps no
      holder table (``state.holders is None``).
    """

    #: Register a client as writer when it syncs with READ_WRITE retain.
    #: CRYPTFS turns this off: it writes ciphertext through immediately,
    #: so a syncing holder never needs to be recalled.
    register_writers = True

    def __init__(self, layer: "BaseLayer") -> None:
        self.layer = layer

    # --------------------------------------------------------------- helpers
    def state(self, source_key: Hashable) -> Any:
        return self.layer.state_by_source(source_key)

    def requester(self, source_key: Hashable, pager_object) -> Optional[Channel]:
        """The upstream channel this pager object serves, or None."""
        for channel in self.layer.channels.channels_for(source_key):
            if channel.pager_object is pager_object:
                return channel
        return None

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
        elif self.register_writers:
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

    def attr_page_in(self, source_key, pager_object) -> FileAttributes:
        return self.state(source_key).under_file.get_attributes()

    def attr_write_out(self, source_key, pager_object, attrs) -> None:
        state = self.state(source_key)
        self.layer.ensure_down(state)
        pager = self.layer.down_fs_pager(state.down_channel)
        if pager is not None:
            pager.attr_write_out(attrs)

    # ----------------------------------------------------------- cache side
    # Invoked by the layer below; the pass-through holds nothing itself,
    # so every action fans out to the holders above.
    def _take_back(self, state, offset, size, access) -> Dict[int, bytes]:
        """What the holders above give up so that the layer below may
        have the range with ``access``: everything (a flush) or only
        the right to write (a denial)."""
        if state.holders is None:
            return {}
        with self.region():
            return state.holders.acquire(None, offset, size, access)

    def flush_back(self, state, offset, size) -> Dict[int, bytes]:
        return self._take_back(state, offset, size, AccessRights.READ_WRITE)

    def deny_writes(self, state, offset, size) -> Dict[int, bytes]:
        return self._take_back(state, offset, size, AccessRights.READ_ONLY)

    def write_back(self, state, offset, size) -> Dict[int, bytes]:
        if state.holders is None:
            return {}
        with self.region():
            return state.holders.collect_latest(offset, size)

    def delete_range(self, state, offset, size) -> None:
        if state.holders is None:
            return
        with self.region():
            state.holders.invalidate(offset, size)

    def zero_fill(self, state, offset, size) -> None:
        if state.holders is None:
            return
        with self.region():
            state.holders.invalidate(offset, size)

    def populate(self, state, offset, size, access, data) -> None:
        pass  # nothing cached here

    def destroy_cache(self, state) -> None:
        if state.holders is not None:
            state.holders.invalidate(0, WHOLE_FILE)
        state.down_channel = None

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
            "page_in", offset, size,
            self.ops.page_in, self.source_key, self, offset, size, access,
        )

    @operation
    def page_in_range(
        self, offset: int, min_size: int, max_size: int, access: AccessRights
    ) -> bytes:
        return self.runtime.dispatch(
            "page_in_range", offset, None,
            self.ops.page_in_range,
            self.source_key, self, offset, min_size, max_size, access,
        )

    @operation
    def page_out(self, offset: int, size: int, data: bytes) -> None:
        self.runtime.dispatch(
            "page_out", offset, size,
            self.ops.page_out, self.source_key, self, offset, size, data, None,
        )

    @operation
    def write_out(self, offset: int, size: int, data: bytes) -> None:
        self.runtime.dispatch(
            "write_out", offset, size,
            self.ops.page_out, self.source_key, self, offset, size, data,
            AccessRights.READ_ONLY,
        )

    @operation
    def sync(self, offset: int, size: int, data: bytes) -> None:
        self.runtime.dispatch(
            "sync", offset, size,
            self.ops.page_out, self.source_key, self, offset, size, data,
            AccessRights.READ_WRITE,
        )

    @operation
    def done_with_pager_object(self) -> None:
        self.layer._channel_done(self.source_key, self)
        self.revoke()

    @operation
    def attr_page_in(self) -> FileAttributes:
        return self.runtime.dispatch(
            "attr_page_in", None, 0, self.ops.attr_page_in, self.source_key, self
        )

    @operation
    def attr_write_out(self, attrs: FileAttributes) -> None:
        self.runtime.dispatch(
            "attr_write_out", None, 0,
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
            "flush_back", offset, None, self.ops.flush_back, self.state, offset, size
        )

    @operation
    def deny_writes(self, offset: int, size: int) -> Dict[int, bytes]:
        return self.runtime.dispatch(
            "deny_writes", offset, None, self.ops.deny_writes, self.state, offset, size
        )

    @operation
    def write_back(self, offset: int, size: int) -> Dict[int, bytes]:
        return self.runtime.dispatch(
            "write_back", offset, None, self.ops.write_back, self.state, offset, size
        )

    @operation
    def delete_range(self, offset: int, size: int) -> None:
        self.runtime.dispatch(
            "delete_range", offset, size,
            self.ops.delete_range, self.state, offset, size,
        )

    @operation
    def zero_fill(self, offset: int, size: int) -> None:
        self.runtime.dispatch(
            "zero_fill", offset, size, self.ops.zero_fill, self.state, offset, size
        )

    @operation
    def populate(
        self, offset: int, size: int, access: AccessRights, data: bytes
    ) -> None:
        self.runtime.dispatch(
            "populate", offset, size,
            self.ops.populate, self.state, offset, size, access, data,
        )

    @operation
    def destroy_cache(self) -> None:
        self.runtime.dispatch(
            "destroy_cache", None, 0, self.ops.destroy_cache, self.state
        )

    @operation
    def invalidate_attributes(self) -> None:
        self.runtime.dispatch(
            "invalidate_attributes", None, 0,
            self.ops.invalidate_attributes, self.state,
        )

    @operation
    def write_back_attributes(self) -> Optional[FileAttributes]:
        return self.runtime.dispatch(
            "write_back_attributes", None, 0,
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
        return {
            index: (page.rights.writable, page.dirty)
            for index, page in store.pages()
        }


class LayerFileState:
    """Generic per-file state a layer keeps for one underlying file.

    Layers subclass to add their caches (plaintext stores, attribute
    copies); the spine relies only on the attributes set here.  A layer
    that keeps no holder table (CFS) sets ``holders`` to None and the
    cache-side defaults no-op.
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
    to the layer's ``file_*`` hook, whose defaults forward to the
    underlying file.  ``bind`` serves a channel from this layer."""

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
    the page traffic entirely (the nullfs/quotafs shape)."""

    @property
    def under_file(self) -> File:
        return self.state.under_file

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
    below.  A layer that changes one operation overrides the hook behind
    it (``wrap_resolved``, ``unbind_in``) and so changes it in both
    places.
    """

    @operation
    def resolve(self, name: str) -> object:
        return self.layer.wrap_resolved(self.under.resolve(name))

    @operation
    def bind(self, name: str, obj: object) -> None:
        self.under.bind(name, obj)

    @operation
    def unbind(self, name: str) -> object:
        return self.layer.unbind_in(self.under, name)

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
        return contextlib.nullcontext()

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
        for channel in self.channels.channels_for(source_key):
            if channel.pager_object is pager_object:
                channel.closed = True
                self.channels.forget(channel)
                self._on_channel_closed(source_key, channel)

    def _on_channel_closed(self, source_key: Hashable, channel: Channel) -> None:
        """Hook: an upstream channel went away.  The default drops the
        departing holder from the file's coherency state."""
        state = self._states_by_source.get(source_key)
        holders = getattr(state, "holders", None) if state is not None else None
        if holders is not None:
            holders.drop_channel(channel)

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
        recalled pages (already merged)."""
        with self.fanout_region():
            if access is None:
                recovered = state.holders.collect_latest(offset, size)
            else:
                recovered = state.holders.acquire(None, offset, size, access)
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
        """Push recalled pages toward storage, one :meth:`push_run` per
        contiguous run."""
        for start, count in index_runs(sorted(recovered)):
            self.push_run(
                state,
                start * PAGE_SIZE,
                [recovered[index] for index in range(start, start + count)],
            )

    def push_run(self, state: Any, offset: int, chunks: List[bytes]) -> None:
        """Where a run of recalled pages goes: down the channel, as one
        page-out."""
        write_run(self.ops.down(state), "page_out", offset, chunks)

    def invalidate_upstream_attrs(
        self, state: Any, exclude: Optional[Channel] = None
    ) -> None:
        """Tell every upstream attribute cache to drop its copy."""
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

    def unbind_in(self, under_context: NamingContext, name: str) -> object:
        """Hook behind ``unbind`` on the root and on every directory:
        purge this layer's state for the file, then unlink below."""
        self.purge_named(under_context, name)
        return under_context.unbind(name)

    def _on_open(self, state: Any, attrs: Optional[FileAttributes]) -> None:
        """Hook: a handle is being created; ``attrs`` carries the
        open-time attribute fetch when one was paid for."""

    # ------------------------------------------------------------ file hooks
    # Defaults forward to the underlying file; transform layers override.
    def file_length(self, state: Any) -> int:
        return state.under_file.get_length()

    def file_set_length(self, state: Any, length: int) -> None:
        state.under_file.set_length(length)

    def file_read(self, state: Any, offset: int, size: int) -> bytes:
        return state.under_file.read(offset, size)

    def file_write(self, state: Any, offset: int, data: bytes) -> int:
        return state.under_file.write(offset, data)

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


class RecoveringFileState(LayerFileState):
    """Per-file state of a :class:`RecoveringLayer`.  The holder table
    is *volatile*: a crash of the layer's node loses it.
    ``registered_epoch`` stamps which incarnation of the node the
    current table was built under; a mismatch against ``node.epoch``
    after recovery triggers re-registration."""

    def __init__(self, layer: "RecoveringLayer", under_file: File) -> None:
        super().__init__(layer, under_file)
        self.registered_epoch = layer.domain.node.epoch


class RecoveringOps(ChannelOps):
    """The coherent pass-through table of a layer whose holder tables a
    crash loses: every state lookup first runs crash recovery — a
    channel operation arriving after the node rebooted must not see the
    empty post-crash holder table as authoritative."""

    def state(self, source_key):
        state = self.layer.state_by_source(source_key)
        self.layer.ensure_recovered(state)
        return state


class RecoveringLayer(BaseLayer):
    """Base of the layers that serve clients on other machines (DFS, the
    sharded DFS).  A crash of the layer's node loses the per-client
    holder tables; recovery rebuilds them from the surviving clients
    (Lustre-style), before the first recall or channel operation of the
    new epoch consults them."""

    ops_class = RecoveringOps
    state_class = RecoveringFileState

    def __init__(self, domain) -> None:
        super().__init__(domain)
        domain.node.add_crash_listener(self._on_node_crash)

    def _on_node_crash(self) -> None:
        """The machine went down: every per-client holder table — who
        caches which block, with what rights — is volatile state and is
        lost with the crash.  The data below and the clients' own caches
        survive."""
        for state in self._states.values():
            state.holders = self._make_holders()

    def ensure_recovered(self, state: RecoveringFileState) -> None:
        """Rebuild ``state``'s holder table after a crash of this node.

        Clients detect the recovery through the node's epoch bump (the
        state is stamped with the epoch its table was registered under).
        Each surviving upstream channel re-declares its cached holds via
        :meth:`~repro.vm.cache_object.CacheObject.held_blocks`, and any
        dirty attribute copy a client's fs_cache still holds is replayed
        down the stack — so post-recovery reads see exactly the
        pre-crash state.  Dirty *data* blocks need no replay here:
        re-recording the writer's hold lets the normal MRSW recall fetch
        them on the next conflicting access.
        """
        node = self.domain.node
        if state.registered_epoch == node.epoch:
            return
        state.registered_epoch = node.epoch
        with self.fanout_region():
            for channel in self.channels.channels_for(state.source_key):
                held = channel.cache_object.held_blocks()
                if held:
                    for index in sorted(held):
                        writable, _dirty = held[index]
                        access = (
                            AccessRights.READ_WRITE
                            if writable
                            else AccessRights.READ_ONLY
                        )
                        state.holders.record(
                            channel, index * PAGE_SIZE, PAGE_SIZE, access
                        )
                fs_cache = narrow(channel.cache_object, FsCache)
                if fs_cache is not None:
                    attrs = fs_cache.write_back_attributes()
                    if attrs is not None:
                        self.ensure_down(state)
                        if state.down_pager is not None:
                            state.down_pager.attr_write_out(attrs)
        self.world.counters.inc(f"{self.fs_type()}.recoveries")
        self.world.trace(
            "fault", f"{self.fs_type()}_recovered",
            file=str(state.under_key), epoch=node.epoch,
        )

    def recall(self, state, offset, size, access=None) -> Dict[int, bytes]:
        self.ensure_recovered(state)
        return super().recall(state, offset, size, access)

    def recall_for_shrink(self, state, length: int, old_length: int) -> None:
        self.ensure_recovered(state)
        super().recall_for_shrink(state, length, old_length)
