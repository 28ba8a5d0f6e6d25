"""CFS — the client-side attribute-caching file system (paper sec. 6.2).

"CFS is an attribute-caching file system.  Its main function is to
interpose on remote files when they are passed to the local machine.
Once interposed on, all calls to remote files end up being forwarded to
the local CFS."

Mechanisms reproduced:

* **Dynamic per-file interposition** — :meth:`CfsLayer.interpose` wraps a
  remote file in a locally implemented :class:`CfsFile` of the same type
  (Spring object interposition, sec. 5).
* **Cache-manager bind** — "When CFS is asked to interpose on a file, it
  becomes a cache manager for the remote file by invoking the bind
  operation on the file"; the returned channel's fs_pager provides the
  attribute page-in/out operations CFS caches through.
* **Bind forwarding to the VMM** — "CFS proceeds by returning to the VMM
  a pager-cache object channel to the remote DFS.  Therefore, all
  page-ins and page-outs from the VMM go directly to the remote DFS."
* **read/write via mapping** — "CFS also services read/write requests by
  mapping the file into its address space and reading/writing the data
  from/to its memory (thus utilizing the local VMM for caching the
  data)."

CFS is optional (the paper's last note): without it, every file
operation goes to the remote DFS.

CFS keeps no holder table and no page store of its own (``holders`` and
``store`` are None — the local VMM's channel goes straight to the
remote DFS), so the spine's cache side returns nothing for data ops,
and ``destroy_cache`` is :meth:`CfsFileState.purge`; its only
:class:`ChannelOps` overrides are the attribute-cache ones.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import FsError
from repro.ipc.invocation import operation
from repro.ipc.narrow import narrow
from repro.naming.context import NamingContext
from repro.types import AccessRights
from repro.vm.channel import BindResult
from repro.vm.memory_object import CacheManager

from repro.fs.attributes import CachedAttributes, FileAttributes
from repro.fs.base import (
    BaseLayer,
    ChannelOps,
    LayerDirectory,
    LayerFile,
    LayerFileState,
)
from repro.fs.file import File


class CfsFileState(LayerFileState):
    """Per-interposed-file state on the client."""

    def __init__(self, layer: "CfsLayer", remote_file: File) -> None:
        super().__init__(layer, remote_file)
        self.attrs: Optional[CachedAttributes] = None
        #: Local mapping used to serve read/write through the local VMM.
        self.mapping = None
        self.mapping_length = 0

    def purge(self) -> None:
        super().purge()
        self.attrs = None


class CfsFile(LayerFile):
    """The locally implemented stand-in for a remote file."""

    @operation
    def bind(
        self,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        length: int,
    ) -> BindResult:
        # Forward: local VMM ends up with a channel straight to the
        # remote DFS; CFS stays out of the page traffic.
        self.layer.world.counters.inc("cfs.bind_forwarded")
        return self.state.under_file.bind(
            cache_manager, requested_access, offset, length
        )


class CfsContext(LayerDirectory):
    """Wraps a remote context so resolved files come back interposed."""

    @operation
    def unbind(self, name: str) -> object:
        # No purge: interposed state belongs to the remote file, and the
        # remote side handles its own unlink hygiene.
        return self.under.unbind(name)

    @operation
    def list_bindings(self):
        return self.under.list_bindings()


class CfsOps(ChannelOps):
    """CFS caches attributes only; data lives in the local VMM (which has
    its own channel to the remote DFS).  With no holder table, the
    spine's data-op defaults already collect nothing — only the
    attribute ops need real behaviour."""

    def invalidate_attributes(self, state) -> None:
        self.layer.world.counters.inc("cfs.attr_invalidated")
        state.attrs = None

    def write_back_attributes(self, state) -> Optional[FileAttributes]:
        if state.attrs is not None and state.attrs.dirty:
            return state.attrs.attrs.copy()
        return None


class CfsLayer(BaseLayer):
    """The per-node CFS server."""

    max_under = 0
    ops_class = CfsOps
    state_class = CfsFileState
    file_class = CfsFile
    directory_class = CfsContext

    def fs_type(self) -> str:
        return "cfs"

    def _make_holders(self):
        return None  # no upstream coherency state; binds are forwarded

    # ------------------------------------------------------------ interposition
    @operation
    def interpose(self, remote_file: File) -> CfsFile:
        """Interpose on one remote file, returning the local stand-in."""
        state = self._states.get(remote_file.source_key)
        if state is None:
            state = self._state_for(remote_file)
            # Become a cache manager for the remote file right away.
            state.down_channel = self.bind_below(
                state, remote_file, AccessRights.READ_ONLY
            )
            state.down_pager = self.down_fs_pager(state.down_channel)
            self.world.counters.inc("cfs.interposed")
        return CfsFile(self, state)

    def wrap_resolved(self, obj: object) -> object:
        remote_file = narrow(obj, File)
        if remote_file is not None:
            return self.interpose(remote_file)
        remote_context = narrow(obj, NamingContext)
        if remote_context is not None:
            return CfsContext(self, remote_context)
        return obj

    # ------------------------------------------------------------- attributes
    def cached_attrs(self, state: CfsFileState) -> FileAttributes:
        if state.attrs is None:
            self.world.counters.inc("cfs.attr_fetch")
            if state.down_pager is not None:
                fetched = state.down_pager.attr_page_in()
            else:
                fetched = state.under_file.get_attributes()
            state.attrs = CachedAttributes(fetched)
        return state.attrs.attrs

    # --------------------------------------------------------------- data path
    def _ensure_mapping(self, state: CfsFileState, needed_length: int) -> None:
        """Map (or re-map) the remote file into CFS's address space so
        read/write go through the local VMM's page cache."""
        if state.mapping is not None and state.mapping_length >= needed_length:
            return
        vmm = self.domain.node.vmm
        if state.mapping is None:
            self._aspace = getattr(self, "_aspace", None) or vmm.create_address_space(
                "cfs"
            )
        length = max(needed_length, self.cached_attrs(state).size)
        if state.mapping is not None:
            state.mapping.address_space.unmap(state.mapping)
        state.mapping = self._aspace.map(
            # Map the CfsFile itself?  No: map the remote file; its bind
            # is what reaches the remote DFS pager.
            state.under_file,
            AccessRights.READ_WRITE,
            offset=0,
            length=length,
        )
        state.mapping_length = length
        if self.readahead_pages > 0:
            # Per cache rather than the node-wide VMM knob, so only CFS
            # traffic reads ahead; the ranged page-ins travel the whole
            # remote stack — DFS forwards them and the disk layer clusters.
            state.mapping.cache.readahead_override = self.readahead_pages

    def file_read(self, state: CfsFileState, offset: int, size: int) -> bytes:
        self.world.charge.fs_read_cpu()
        attrs = self.cached_attrs(state)
        if offset >= attrs.size:
            return b""
        size = min(size, attrs.size - offset)
        self._ensure_mapping(state, offset + size)
        # Mapping.read may return a view into the shared VmCache;
        # File.read's contract is immutable bytes, so materialize here —
        # exactly once, at the layer boundary.
        return state.mapping.read_copy(offset, size)

    def file_write(self, state: CfsFileState, offset: int, data: bytes) -> int:
        self.world.charge.fs_write_cpu()
        attrs = self.cached_attrs(state)
        end = offset + len(data)
        if end > attrs.size:
            # Growth must go to the authority (the remote file) so other
            # clients observe it.  The server's invalidation fan-out may
            # drop our attribute cache during this call — refetch after.
            state.under_file.set_length(end)
            self.cached_attrs(state)
            state.attrs.set_size(end)
        self._ensure_mapping(state, end)
        state.mapping.write(offset, data)
        self.cached_attrs(state)
        state.attrs.touch_mtime(int(self.world.clock.now_us))
        return len(data)

    def file_length(self, state: CfsFileState) -> int:
        return self.cached_attrs(state).size

    def file_get_attributes(self, state: CfsFileState) -> FileAttributes:
        self.world.charge.fs_attr_copy()
        return self.cached_attrs(state).copy()

    def file_set_length(self, state: CfsFileState, length: int) -> None:
        state.under_file.set_length(length)
        if state.attrs is not None:
            state.attrs.set_size(length)

    def file_sync(self, state: CfsFileState) -> None:
        if state.attrs is not None and state.attrs.dirty:
            if state.down_pager is not None:
                state.down_pager.attr_write_out(state.attrs.attrs.copy())
            state.attrs.dirty = False
        if state.mapping is not None:
            state.mapping.cache.sync()

    def _sync_impl(self) -> None:
        for state in self._states.values():
            self.file_sync(state)

    # -------------------------------------------------------------- naming face
    # CFS is not bound into the FS name space as a tree of its own; these
    # satisfy the stackable_fs contract minimally.
    @operation
    def resolve(self, name: str) -> object:
        raise FsError("CFS interposes on files; it does not export a tree")

    @operation
    def bind(self, name: str, obj: object) -> None:
        raise FsError("CFS does not hold bindings")

    @operation
    def unbind(self, name: str) -> object:
        raise FsError("CFS does not hold bindings")

    @operation
    def rebind(self, name: str, obj: object) -> object:
        raise FsError("CFS does not hold bindings")

    @operation
    def list_bindings(self):
        return []


def start_cfs(node) -> CfsLayer:
    """Boot a CFS server on a node (administratively optional)."""
    from repro.ipc.domain import Credentials

    return CfsLayer(node.create_domain("cfs", Credentials("cfs", privileged=True)))
