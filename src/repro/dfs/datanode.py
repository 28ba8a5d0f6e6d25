"""DataNode — one block-storage target of the sharded DFS.

A datanode owns a :class:`~repro.vm.page.PageStore` per sharded file and
serves fixed-size blocks (one VM page each, the paper's 4KB transfer
unit) over ordinary object invocation, so every block op pays the same
network/queueing costs as any other Spring message.  Block storage is
disk-backed in the model: a node crash makes the service unreachable
(every invocation raises :class:`~repro.errors.NodeCrashedError` at the
network) but the stored blocks survive into the next epoch — exactly the
failure mode the NameNode's stale-holder catch-up repairs.

Writes are *versioned and idempotent*: the NameNode assigns each
prepared write a monotonically increasing per-block version, and
``put_blocks`` applies a chunk only when its version is newer than the
stored one.  A duplicated or retried delivery of the same put therefore
acks without re-applying — the property the quorum protocol needs under
the fault plane's duplicate/retry machinery (see
``tests/test_concurrent_faults.py``).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.errors import FsError
from repro.ipc.invocation import operation
from repro.ipc.object import SpringObject
from repro.types import AccessRights
from repro.vm.page import PageStore


class DataNodeService(SpringObject):
    """Block service exported by one storage node."""

    def __init__(self, domain, name: str) -> None:
        super().__init__(domain)
        self.name = name
        self._stores: Dict[Hashable, PageStore] = {}
        #: (file_key, index) -> version currently stored.
        self._versions: Dict[Tuple[Hashable, int], int] = {}

    # ------------------------------------------------------------ internals
    def _store(self, file_key: Hashable) -> PageStore:
        store = self._stores.get(file_key)
        if store is None:
            store = self._stores[file_key] = PageStore()
        return store

    def stored_version(self, file_key: Hashable, index: int) -> int:
        """Test/introspection helper (not an operation): the version this
        node holds for a block, 0 if absent."""
        return self._versions.get((file_key, index), 0)

    def stored_blocks(self) -> int:
        return len(self._versions)

    # ----------------------------------------------------------- operations
    @operation
    def ping(self) -> Tuple[int, int]:
        """Liveness heartbeat: (node epoch, blocks stored).  The epoch
        lets the NameNode distinguish "still the incarnation I knew"
        from "crashed and came back" (Lustre-style epoch recovery)."""
        return self.domain.node.epoch, len(self._versions)

    @operation
    def put_blocks(
        self, file_key: Hashable, items: List[Tuple[int, bytes, int]]
    ) -> List[Tuple[int, int]]:
        """Store a batch of ``(index, data, version)`` chunks for one
        file — one invocation per datanode per striped write, so the
        whole fan-out costs one message per target.

        Returns ``(index, stored_version)`` acks.  A chunk whose version
        is not newer than the stored one is *skipped but acked* with the
        stored version: the data it carries is already durable here (or
        superseded), which is what makes redelivery safe.
        """
        counters = self.world.counters
        store = self._store(file_key)
        acks: List[Tuple[int, int]] = []
        for index, data, version in items:
            key = (file_key, index)
            stored = self._versions.get(key, 0)
            if version <= stored:
                counters.inc("shard.dn.put_skipped")
                acks.append((index, stored))
                continue
            store.install(index, data, AccessRights.READ_WRITE)
            self._versions[key] = version
            counters.inc("shard.dn.put_applied")
            acks.append((index, version))
        return acks

    @operation
    def get_blocks(
        self, file_key: Hashable, indices: List[int]
    ) -> List[Tuple[int, memoryview, int]]:
        """Read a batch of blocks: ``(index, data, version)`` for every
        requested block this node holds (missing blocks are simply
        omitted — the client fails over to another replica).  Data is a
        read-only snapshot view; callers consume it synchronously."""
        self.world.counters.inc("shard.dn.get", len(indices))
        store = self._stores.get(file_key)
        if store is None:
            return []
        out: List[Tuple[int, memoryview, int]] = []
        for index in indices:
            page = store.get(index)
            if page is None:
                continue
            out.append(
                (index, page.snapshot(), self._versions[(file_key, index)])
            )
        return out

    @operation
    def delete_blocks(self, file_key: Hashable, indices: List[int]) -> None:
        """Drop blocks (truncate, rebalance-away, surplus cleanup)."""
        store = self._stores.get(file_key)
        for index in indices:
            self._versions.pop((file_key, index), None)
            if store is not None:
                store.drop(index)
        self.world.counters.inc("shard.dn.deleted", len(indices))

    @operation
    def pull_block(
        self, file_key: Hashable, index: int, source: "DataNodeService"
    ) -> int:
        """Server-to-server copy: fetch one block from ``source`` and
        store it here.  The NameNode drives this for re-replication,
        stale-holder catch-up, and rebalancing; the transfer is charged
        as this node invoking ``source`` over the network.  Returns the
        version now stored locally."""
        replies = source.get_blocks(file_key, [index])
        if not replies:
            raise FsError(
                f"pull_block: {source.name!r} does not hold block "
                f"{index} of {file_key!r}"
            )
        _, data, version = replies[0]
        key = (file_key, index)
        if version > self._versions.get(key, 0):
            self._store(file_key).install(index, data, AccessRights.READ_WRITE)
            self._versions[key] = version
        self.world.counters.inc("shard.dn.pulled")
        return self._versions[key]
