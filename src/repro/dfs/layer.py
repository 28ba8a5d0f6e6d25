"""ShardedDfsLayer — the client-side striping layer of the sharded DFS.

Sits on the ChannelOps spine like every other layer, but instead of
forwarding page traffic to the layer below it *fans out* to the
datanodes: a written-back run (``push_run``, where the spine's
``page_out`` ends) becomes quorum writes striped block-by-block across
replicas, a ``page_in`` — of a page, a run or a read-ahead window —
becomes located reads with per-replica failover.  The layer it stacks on is the
*metadata* file system (an SFS on the namenode's machine): the file's
namespace entry, attributes, and length live there; its data does not —
the Lustre MDS/OST split on the Spring stacking architecture.

Quorum contract (SNIPPETS Snippet 1's read/write-quorum idiom):

* a striped write must be acked by ``W`` of each block's ``R`` targets
  (``W`` clamped to the targets actually assigned, so a short-handed
  cluster degrades to write-all-available instead of failing);
* reads need ``read_quorum`` replies per block (default 1 — the
  NameNode only lists *current* holders, so one reply is already
  consistent; a higher read quorum cross-checks versions and takes the
  highest), degrading to the holders actually reachable — like the
  write side — so a read fails only when *no* current replica answers;
* misconfigurations (W > R, read quorum > R) are rejected at
  ``stack_on`` time with :class:`~repro.errors.StackingError`.

With one datanode and R = W = 1 the layer degenerates to the classic
single-server DFS data path: every block on the one node, no fan-out,
failover list of length one.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.errors import FsError, StackingError, TransientNetworkError
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.page import ZERO_PAGE, ZERO_VIEW

from repro.fs.base import (
    WHOLE_FILE,
    LayerFile,
    RecoveringFileState,
    RecoveringLayer,
    RecoveringOps,
)
from repro.fs.file import File
from repro.fs.fs_interfaces import StackableFs

from repro.dfs.datanode import DataNodeService
from repro.dfs.namenode import NameNodeService


class QuorumWriteError(FsError):
    """A striped write could not reach its write quorum (too few live
    replicas acked).  Data acked by a minority is still recorded by the
    NameNode and repaired toward full replication, but the operation
    fails the availability contract."""


class QuorumReadError(FsError):
    """No reachable current replica could serve a required block."""


class ShardedFileState(RecoveringFileState):
    """Per-file state: the metadata under-file plus a client-side copy
    of the length (so every page-in clamp does not cost a metadata
    round trip).  ``file_key`` — the key blocks are stored under on the
    datanodes — is the metadata file's stable source key."""

    def __init__(self, layer: "ShardedDfsLayer", under_file: File) -> None:
        super().__init__(layer, under_file)
        self.file_key: Hashable = self.under_key
        self.length = under_file.get_length()


class ShardedOps(RecoveringOps):
    """Dispatch table: holder bookkeeping above (the layer is still a
    coherent pager to its clients, and rebuilds its holder tables after
    a crash like DFS), sharded quorum I/O below instead of a
    down-channel."""

    def data_length(self, state) -> int:
        return state.length

    def page_in(self, source_key, pager_object, offset, size, access):
        state = self.state(source_key)
        self.admit(state, pager_object, offset, size, access)
        return self.layer.shard_read(state, offset, size)


class ShardedDfsLayer(RecoveringLayer):
    """The striping/replication layer; see module docstring."""

    max_under = 1
    ops_class = ShardedOps
    state_class = ShardedFileState
    file_class = LayerFile  # bind serves channels from *this* layer

    def __init__(
        self,
        domain,
        namenode: NameNodeService,
        write_quorum: int = 2,
        read_quorum: int = 1,
    ) -> None:
        super().__init__(domain)
        self.namenode = namenode
        self.write_quorum = write_quorum
        self.read_quorum = read_quorum
        #: Client-side mount table: datanode name -> service handle (the
        #: NameNode speaks in names; the client resolves them here).
        self._datanodes: Dict[str, DataNodeService] = {}

    def fs_type(self) -> str:
        return "shardfs"

    def attach_datanode(self, name: str, service: DataNodeService) -> None:
        self._datanodes[name] = service

    # ------------------------------------------------------------- stacking
    def stack_on(self, underlying: StackableFs) -> None:
        replication = self.namenode.replication
        if self.write_quorum < 1:
            raise StackingError(
                f"shardfs: write quorum must be >= 1, got {self.write_quorum}"
            )
        if self.read_quorum < 1:
            raise StackingError(
                f"shardfs: read quorum must be >= 1, got {self.read_quorum}"
            )
        if self.write_quorum > replication:
            raise StackingError(
                f"shardfs: write quorum {self.write_quorum} exceeds "
                f"replication factor {replication}"
            )
        if self.read_quorum > replication:
            raise StackingError(
                f"shardfs: read quorum {self.read_quorum} exceeds "
                f"replication factor {replication}"
            )
        if not self._datanodes:
            raise StackingError("shardfs: no datanodes attached")
        super().stack_on(underlying)

    # ------------------------------------------------------ recovered pages
    def push_run(self, state, offset: int, chunks: list) -> None:
        """A run of dirty pages — written back by a client or recalled
        from upstream holders — goes to the shards (the base class would
        push it down the metadata channel).  Page-granular flushes never
        grow the file: the VMM writes back whole pages, so an unaligned
        file would get its length rounded up to the page boundary (and
        serve trailing zeros as content).  Length grows only on the
        byte-precise file_write/set_length paths."""
        self.shard_write(state, offset, b"".join(chunks))

    def note_written(self, state, end: int) -> None:
        """A byte-precise write reached ``end``; grow the (metadata)
        length if it extended the file.  Only ``file_write`` calls this
        — page-granular flush paths never change the length."""
        if end > state.length:
            state.length = end
            state.under_file.set_length(end)

    # ------------------------------------------------------------ file hooks
    def file_length(self, state) -> int:
        return state.length

    def file_read(self, state, offset: int, size: int) -> bytes:
        self.world.charge.fs_read_cpu()
        self.recall(state, offset, size)
        length = state.length
        if offset >= length or size <= 0:
            return b""
        return bytes(self.shard_read(state, offset, min(size, length - offset)))

    def file_write(self, state, offset: int, data: bytes) -> int:
        self.world.charge.fs_write_cpu()
        self.recall(state, offset, len(data), AccessRights.READ_WRITE)
        self.shard_write(state, offset, data)
        self.note_written(state, offset + len(data))
        return len(data)

    def file_set_length(self, state, length: int) -> None:
        self.recall_for_shrink(state, length, length + WHOLE_FILE)
        shrunk_into_block = length < state.length and length % PAGE_SIZE != 0
        state.length = length
        state.under_file.set_length(length)
        self.namenode.truncate(state.file_key, length)
        if shrunk_into_block:
            # Physically zero the boundary block's tail so the stale
            # bytes cannot resurface if the file is later re-extended.
            # (Bypasses note_written: this write must not grow length.)
            pad = PAGE_SIZE - length % PAGE_SIZE
            self.shard_write(state, length, bytes(pad))

    def file_sync(self, state) -> None:
        self.recall(state, 0, WHOLE_FILE)
        state.under_file.sync()

    # --------------------------------------------------------- sharded read
    def shard_read(self, state, offset: int, size: int):
        """Read ``[offset, offset+size)`` from the shards.  Returns a
        bytes-like (zero-copy view when one cached block serves the
        whole request)."""
        if size <= 0:
            return b""
        first = offset // PAGE_SIZE
        last = (offset + size - 1) // PAGE_SIZE
        blocks = self._fetch_blocks(state, first, last - first + 1)
        lead = offset - first * PAGE_SIZE
        if first == last:
            return blocks[first][lead : lead + size]
        out = bytearray(size)
        pos = 0
        for index in range(first, last + 1):
            chunk = blocks[index]
            start = lead if index == first else 0
            take = min(PAGE_SIZE - start, size - pos)
            out[pos : pos + take] = chunk[start : start + take]
            pos += take
        return bytes(out)

    def _fetch_blocks(self, state, first: int, count: int) -> Dict[int, object]:
        """Fetch ``count`` whole blocks starting at ``first``: locate,
        batch one ``get_blocks`` per datanode, fail over down each
        block's holder list, and (for read quorums > 1) pick the highest
        version among the quorum's replies.

        The read quorum degrades to the holders actually reachable —
        mirroring the write-side clamp — so a cross-checking read
        (``read_quorum > 1``) still succeeds during a holder outage as
        long as one current replica answers (``shard.read_degraded``).
        Only a block with *no* reachable current holder fails the read."""
        counters = self.world.counters
        locations = self.namenode.locate_range(state.file_key, first, count)
        out: Dict[int, object] = {}
        #: index -> (required replies, candidate holder list, next
        #: candidate position, replies so far as (version, data)).
        pending: Dict[int, list] = {}
        for index, version, names in locations:
            if version == 0 or not names:
                out[index] = ZERO_VIEW  # never written: serve zeros
                continue
            pending[index] = [min(self.read_quorum, len(names)), names, 0, []]
        dead: set = set()
        while pending:
            # One batched round: each unsatisfied block asks its next
            # untried holder; requests are grouped per datanode.
            per_node: Dict[str, List[int]] = {}
            for index in list(pending):
                entry = pending[index]
                _, names, position, replies = entry
                while position < len(names) and names[position] in dead:
                    position += 1
                if position >= len(names):
                    if replies:
                        # Every untried holder is unreachable: degrade
                        # the quorum to the replies in hand (the write
                        # side clamps W to available targets the same
                        # way) and serve the highest version seen.
                        replies.sort(key=lambda pair: pair[0])
                        out[index] = replies[-1][1]
                        counters.inc("shard.read_degraded")
                        del pending[index]
                        continue
                    counters.inc("shard.read_unavailable")
                    raise QuorumReadError(
                        f"block {index} of {state.file_key!r}: no reachable "
                        f"current replica (holders {names})"
                    )
                entry[2] = position + 1
                per_node.setdefault(names[position], []).append(index)
            with self.fanout_region():
                for name, indices in per_node.items():
                    try:
                        replies = self._datanodes[name].get_blocks(
                            state.file_key, indices
                        )
                    except TransientNetworkError:
                        dead.add(name)
                        counters.inc("shard.read_failover")
                        continue
                    for index, data, version in replies:
                        pending[index][3].append((version, data))
            for index in list(pending):
                needed, _, _, replies = pending[index]
                if len(replies) >= needed:
                    replies.sort(key=lambda pair: pair[0])
                    out[index] = replies[-1][1]
                    del pending[index]
        counters.inc("shard.reads")
        return out

    def _block_base(self, state, index: int) -> bytearray:
        """Current contents of one block, for read-modify-write of a
        partial-block write.  Bytes past the file length read as zero,
        so truncated tails never resurface."""
        start = index * PAGE_SIZE
        length = state.length
        if start >= length:
            return bytearray(PAGE_SIZE)
        base = bytearray(self._fetch_blocks(state, index, 1)[index])
        if len(base) < PAGE_SIZE:
            base.extend(ZERO_PAGE[len(base) :])
        valid = length - start
        if valid < PAGE_SIZE:
            base[valid:] = ZERO_PAGE[valid:]
        return base

    # -------------------------------------------------------- sharded write
    def shard_write(self, state, offset: int, data) -> None:
        """Quorum write of ``data`` at ``offset``: split into blocks
        (read-modify-write at unaligned edges), get placement + versions
        from the NameNode, push one batched ``put_blocks`` per target
        datanode with per-target failover, then commit the acks.  Raises
        :class:`QuorumWriteError` if any block got fewer than
        min(write_quorum, targets) acks — after committing, so whatever
        *was* durably written is tracked and repairable."""
        size = len(data)
        if size == 0:
            return
        counters = self.world.counters
        first = offset // PAGE_SIZE
        last = (offset + size - 1) // PAGE_SIZE
        lead = offset - first * PAGE_SIZE
        chunks: Dict[int, bytes] = {}
        view = memoryview(data) if not isinstance(data, memoryview) else data
        pos = 0
        for index in range(first, last + 1):
            start = lead if index == first else 0
            take = min(PAGE_SIZE - start, size - pos)
            if start == 0 and take == PAGE_SIZE:
                chunks[index] = bytes(view[pos : pos + take])
            else:
                base = self._block_base(state, index)
                base[start : start + take] = view[pos : pos + take]
                chunks[index] = bytes(base)
            pos += take

        plan = self.namenode.prepare_write_range(
            state.file_key, first, last - first + 1
        )
        targets: Dict[int, Tuple[int, List[str]]] = {}
        per_node: Dict[str, List[Tuple[int, bytes, int]]] = {}
        for index, version, names in plan:
            targets[index] = (version, names)
            for name in names:
                per_node.setdefault(name, []).append(
                    (index, chunks[index], version)
                )
        acked: Dict[int, List[str]] = {index: [] for index in chunks}
        with self.fanout_region():
            for name, items in per_node.items():
                try:
                    acks = self._datanodes[name].put_blocks(state.file_key, items)
                except TransientNetworkError:
                    counters.inc("shard.write_failover")
                    continue
                for index, stored in acks:
                    if stored == targets[index][0]:
                        acked[index].append(name)
                    elif stored > targets[index][0]:
                        # The replica holds a version the NameNode never
                        # told us about (an orphan from a truncate whose
                        # delete could not reach it, or a concurrent
                        # writer).  Its bytes are not ours: counting it
                        # toward the quorum would mark stale data
                        # current, so treat it as a conflict instead.
                        counters.inc("shard.write_conflicts")
        self.namenode.commit_write(
            state.file_key,
            [(index, targets[index][0], acked[index]) for index in chunks],
        )
        for index in chunks:
            version, names = targets[index]
            needed = max(1, min(self.write_quorum, len(names)))
            if len(acked[index]) < needed:
                counters.inc("shard.quorum_failures")
                raise QuorumWriteError(
                    f"block {index} of {state.file_key!r}: "
                    f"{len(acked[index])} of {len(names)} replicas acked "
                    f"version {version}, quorum is {needed}"
                )
        counters.inc("shard.quorum_writes")
