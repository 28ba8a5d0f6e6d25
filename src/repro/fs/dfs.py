"""DFS — the network-coherent distributed file system layer (Figure 7).

"The job of DFS is to export SFS files to other machines in a coherent
fashion ... For each underlying file_SFS, DFS exports a file_DFS.
File_DFS may be accessed on the local machine through the normal Spring
mechanisms, or it may be accessed remotely through the DFS protocol."

The two defining mechanisms, both implemented here:

* **Local bind forwarding** — "Local binds to file_DFS are forwarded to
  the corresponding file_SFS.  Thus, local clients of file_DFS use the
  same cache object as clients of file_SFS, and DFS is not involved in
  local page-in/page-out requests."  (Toggle with
  ``forward_local_binds=False`` for the ablation.)
* **DFS as cache manager to SFS** — remote traffic flows through DFS,
  which binds to the underlying file (the P2-C2 connection).  When a
  local client needs a block that remote clients hold dirty, SFS's
  coherency layer calls DFS's fs_cache, and DFS recalls the block from
  the remote VMMs over the network; and vice versa.

Remote machines reach DFS through ordinary location-transparent object
invocation — our network model charges every hop, which *is* the
"private DFS protocol" of the paper for accounting purposes.

DFS is the layer the :class:`repro.fs.base.ChannelOps` defaults are
modelled on — a coherent pass-through that keeps no data cache of its
own — so it overrides *no* channel operation's data path.  What it adds
is its one transform point (local bind forwarding), the intent-open
fast path, and crash recovery: the per-client holder tables are
volatile, and :meth:`DfsLayer.ensure_recovered` rebuilds them from the
surviving clients (Lustre-style) before anything consults them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.errors import FsError
from repro.ipc.invocation import operation
from repro.ipc.narrow import narrow
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.cache_object import FsCache
from repro.vm.channel import BindResult
from repro.vm.memory_object import CacheManager

from repro.fs.attributes import FileAttributes
from repro.fs.base import (
    WHOLE_FILE,
    BaseLayer,
    ChannelOps,
    LayerDirectory,
    LayerFile,
    LayerFileState,
    LayerNaming,
)
from repro.fs.file import File


@dataclasses.dataclass(frozen=True)
class IntentOpenResult:
    """Result of :meth:`DfsLayer.open_intent` — the open handle plus the
    attributes the client would otherwise fetch in a separate round
    trip.  The NFSv4/Lustre "intent" idea applied to the Spring open
    protocol: lookup, access check, and attribute fetch travel together."""

    file: "DfsFile"
    attributes: FileAttributes


class DfsFile(LayerFile):
    """file_DFS: an open handle exported by DFS."""

    @operation
    def bind(
        self,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        length: int,
    ) -> BindResult:
        layer = self.layer
        caller_local = (
            getattr(cache_manager, "domain", None) is not None
            and cache_manager.domain.node is layer.domain.node
        )
        if caller_local and layer.forward_local_binds:
            # Forward: the local VMM ends up talking to SFS directly and
            # shares the very same cached memory as direct SFS clients.
            layer.world.counters.inc("dfs.bind_forwarded")
            return self.state.under_file.bind(
                cache_manager, requested_access, offset, length
            )
        layer.world.counters.inc("dfs.bind_served")
        # P2-C2 up front: remote traffic must participate in the lower
        # layer's coherency from the first page.
        layer.ensure_down(self.state)
        return layer.bind_file(
            self.state, cache_manager, requested_access, offset, length
        )


class DfsNaming(LayerNaming):
    """The DFS naming face: the generic one plus the intent open, on the
    layer root and on every directory alike."""

    @operation
    def open_intent(self, name: str) -> IntentOpenResult:
        """Lookup + access check + attribute fetch in one invocation
        (one round trip for a remote client): the body runs entirely on
        the server, where every sub-step is a local or cross-domain
        call."""
        layer = self.layer
        under_file = narrow(self.under.resolve(name), File)
        if under_file is None:
            raise FsError(f"{name!r} is not a file")
        under_file.check_access(AccessRights.READ_ONLY)
        attrs = under_file.get_attributes()
        layer.world.charge.fs_attr_copy()
        layer.world.counters.inc("dfs.intent_open")
        return IntentOpenResult(
            DfsFile(layer, layer._state_for(under_file)), attrs
        )


class DfsDirectory(DfsNaming, LayerDirectory):
    """Directory wrapper exporting DFS files (resolvable remotely)."""


class RecoveringFileState(LayerFileState):
    """Per-file state of a :class:`DfsLayer`.  The holder table is
    *volatile*: a crash of the layer's node loses it.
    ``registered_epoch`` stamps which incarnation of the node the
    current table was built under; a mismatch against ``node.epoch``
    after recovery triggers re-registration."""

    def __init__(self, layer: "DfsLayer", under_file: File) -> None:
        super().__init__(layer, under_file)
        self.registered_epoch = layer.domain.node.epoch


class RecoveringOps(ChannelOps):
    """DFS's channel table: the coherent pass-through, except that every
    state lookup, and every cache-side op before it touches the holders,
    first runs crash recovery — a channel operation arriving after the
    node rebooted must not see the empty post-crash holder table as
    authoritative."""

    def state(self, source_key):
        state = self.layer.state_by_source(source_key)
        self.layer.ensure_recovered(state)
        return state

    def holders_above(self, state):
        # A recall from below after a crash must reach the clients too.
        self.layer.ensure_recovered(state)
        return super().holders_above(state)


class DfsLayer(DfsNaming, BaseLayer):
    """The DFS server layer; see module docstring.  A crash of the
    layer's node loses the per-client holder tables; recovery rebuilds
    them from the surviving clients before the first recall or channel
    operation of the new epoch consults them."""

    max_under = 1
    file_class = DfsFile
    directory_class = DfsDirectory
    ops_class = RecoveringOps
    state_class = RecoveringFileState

    def __init__(
        self,
        domain,
        forward_local_binds: bool = True,
        protocol: str = "per_block",
        compound: bool = False,
    ) -> None:
        super().__init__(domain)
        domain.node.add_crash_listener(self._on_node_crash)
        self.forward_local_binds = forward_local_binds
        #: Coherency policy for remote client channels (sec. 3.3.3: the
        #: protocol is the pager's choice).
        self.protocol = protocol
        self.compound = compound

    def fs_type(self) -> str:
        return "dfs"

    # ------------------------------------------------------- crash recovery
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
        self.world.counters.inc("dfs.recoveries")

    def recall(self, state, offset, size, access=None) -> Dict[int, bytes]:
        self.ensure_recovered(state)
        return super().recall(state, offset, size, access)

    def recall_for_shrink(self, state, length: int, old_length: int) -> None:
        self.ensure_recovered(state)
        super().recall_for_shrink(state, length, old_length)

    # ------------------------------------------------------------- file ops
    # DFS keeps no data cache of its own: reads and writes are served out
    # of the underlying file after recalling anything remote VMMs hold
    # dirty.  (The paper's DFS maps file_SFS; the effect — data cached on
    # the server by the layer below — is the same.)
    def file_read(self, state, offset: int, size: int) -> bytes:
        self.world.charge.fs_read_cpu()
        self.recall(state, offset, size)
        return state.under_file.read(offset, size)

    def file_write(self, state, offset: int, data: bytes) -> int:
        self.world.charge.fs_write_cpu()
        self.recall(state, offset, len(data), AccessRights.READ_WRITE)
        return state.under_file.write(offset, data)

    def file_set_length(self, state, length: int) -> None:
        # Everything above the new length goes, to end-of-file — without
        # paying a get_length below to learn where that is.
        self.recall_for_shrink(state, length, length + WHOLE_FILE)
        state.under_file.set_length(length)


def export_dfs(server_node, under_fs, name: str = "dfs", **layer_kwargs) -> DfsLayer:
    """Administrative helper: create a DFS layer on ``server_node``, stack
    it on ``under_fs``, and export it at ``/fs/<name>``.  Extra keyword
    arguments (``compound=True``, ``protocol=...``) pass through to
    :class:`DfsLayer`."""
    from repro.ipc.domain import Credentials

    domain = server_node.create_domain(
        f"{name}-server", Credentials(name, privileged=True)
    )
    dfs = DfsLayer(domain, **layer_kwargs)
    dfs.stack_on(under_fs)
    server_node.fs_context.bind(name, dfs)
    return dfs


def mount_remote(client_node, server_node, name: str = "dfs") -> object:
    """Bind a remote DFS export into the client node's /fs context —
    "the Spring naming system ... enables the naming system to be largely
    orthogonal to the file system"."""
    remote = server_node.fs_context.resolve(name)
    mount_name = f"{name}@{server_node.name}"
    client_node.fs_context.bind(mount_name, remote)
    return remote
