"""NameNode — the metadata service of the sharded DFS.

Owns the block map (file -> ordered blocks -> replica placement), tracks
datanode liveness via epoch heartbeats over the ordinary network (so the
fault plane's crashes/partitions are what it sees), and runs two
background state machines:

* **repair** — re-replicates under-replicated blocks (a holder crashed,
  or a write landed on fewer than R replicas) and catches stale holders
  up after they recover under a new epoch.  Repairs are bounded per
  scan so a recovery storm spreads over several client operations
  instead of stalling one of them for the whole backlog;
* **rebalance** — migrates block replicas off overfull datanodes toward
  underfull ones, breaking fullness ties toward the node that has
  received the most network bytes (the hot one), using the per-node
  byte accounting already kept by :class:`repro.ipc.network.Network`.

The data path deliberately bypasses this service: clients ask it *where*
blocks live (``prepare_write_range`` / ``locate_range``), talk to the
datanodes directly, then report what actually happened
(``commit_write``) — the Lustre/HDFS metadata-data split.

Versions and quorums: ``prepare_write_range`` assigns each block the
next version; ``commit_write`` marks a version *committed* once at
least one datanode acked it (durable somewhere), records exactly which
holders are current, and counts the write against the client's W-of-R
quorum contract client-side.  Readers are directed only at current
holders, so a partially-acked write can fail the client's quorum while
never serving torn data.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Hashable, List, Tuple

from repro.errors import TransientNetworkError
from repro.ipc.invocation import operation
from repro.ipc.object import SpringObject
from repro.types import PAGE_SIZE

from repro.dfs.blockmap import BlockInfo, BlockMap
from repro.dfs.datanode import DataNodeService


#: Repair moves allowed per heartbeat scan (bounds the latency a single
#: client op absorbs during a recovery storm).
REPAIRS_PER_SCAN = 4
#: Minimum replica-count spread before the rebalancer moves one.
REBALANCE_GAP = 2


@dataclasses.dataclass
class DataNodeEntry:
    """Registry row for one datanode."""

    name: str
    service: DataNodeService
    alive: bool = True
    #: Last epoch observed via heartbeat; a bump means the node crashed
    #: and recovered, so its unacked state may be stale.
    epoch: int = 0


class NameNodeService(SpringObject):
    """The metadata server; see module docstring."""

    def __init__(
        self,
        domain,
        replication: int = 3,
        heartbeat_interval_us: float = 5_000.0,
    ) -> None:
        super().__init__(domain)
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.replication = replication
        self.heartbeat_interval_us = heartbeat_interval_us
        self.block_map = BlockMap()
        self._datanodes: Dict[str, DataNodeEntry] = {}
        self._last_scan_us = float("-inf")

    # ------------------------------------------------------------ registry
    @operation
    def register_datanode(self, name: str, service: DataNodeService) -> None:
        self._datanodes[name] = DataNodeEntry(name, service)

    def _live(self) -> List[DataNodeEntry]:
        return [e for e in self._datanodes.values() if e.alive]

    # --------------------------------------------------- liveness scanning
    def _maybe_scan(self) -> None:
        """Heartbeat pass, rate-limited against the virtual clock.  Runs
        inline in the metadata operations (there is no background thread
        in the deterministic world): each scan pings every datanode,
        flips liveness on epoch/reachability changes, then performs a
        bounded amount of repair and rebalancing."""
        now = self.world.clock.now_us
        if now - self._last_scan_us < self.heartbeat_interval_us:
            return
        self._last_scan_us = now
        self._scan()

    def _scan(self) -> None:
        counters = self.world.counters
        counters.inc("shard.nn.scans")
        for entry in self._datanodes.values():
            try:
                epoch, _stored = entry.service.ping()
            except TransientNetworkError:
                if entry.alive:
                    entry.alive = False
                    counters.inc("shard.nn.datanode_lost")
                continue
            if not entry.alive:
                entry.alive = True
                counters.inc("shard.nn.datanode_recovered")
            entry.epoch = epoch
        self._repair(REPAIRS_PER_SCAN)
        self._rebalance(1)

    @operation
    def heartbeat_scan(self) -> None:
        """Force an immediate liveness scan + bounded repair pass
        (benchmarks and admins drive recovery to completion with this)."""
        self._last_scan_us = self.world.clock.now_us
        self._scan()

    # ------------------------------------------------------------ data path
    @operation
    def prepare_write_range(
        self, file_key: Hashable, first: int, count: int
    ) -> List[Tuple[int, int, List[str]]]:
        """Assign targets and a new version to each block of a striped
        write.  Returns ``(index, version, target names)`` per block.

        Existing blocks keep their current holders as targets (plus
        fresh live nodes to top back up to R when holders are missing —
        so an ordinary write heals under-replication for free); fresh
        blocks are placed round-robin by block index over the live
        datanodes.  Dead holders stay listed: the client's per-target
        failover decides what actually acks, and the quorum decides
        whether that was enough.

        Every version handed out is *burned* (``BlockInfo.prepared``,
        surviving truncate via the block map's per-file floor): a
        prepare whose commit never lands, or whose block is later
        dropped and re-created, can never cause the same version number
        to name two different byte strings — the invariant the
        datanodes' skip-but-ack idempotence relies on.
        """
        self._maybe_scan()
        live = self._live()
        live_names = [e.name for e in live]
        out: List[Tuple[int, int, List[str]]] = []
        for index in range(first, first + count):
            info = self.block_map.block(file_key, index, create=True)
            targets = list(info.holders)
            if len(targets) < self.replication:
                for k in range(len(live_names)):
                    candidate = live_names[(index + k) % len(live_names)]
                    if candidate not in targets:
                        targets.append(candidate)
                    if len(targets) >= self.replication:
                        break
            out.append((index, info.next_version(), targets))
        return out

    @operation
    def commit_write(
        self,
        file_key: Hashable,
        results: List[Tuple[int, int, List[str]]],
    ) -> None:
        """Record what a striped write actually achieved:
        ``(index, version, names that acked it)`` per block.  A version
        with at least one ack becomes the committed version; holders
        that did not ack keep their old (now stale) version and are
        repaired by the scan loop."""
        for index, version, acked in results:
            if not acked:
                continue  # nothing durable changed anywhere
            info = self.block_map.block(file_key, index, create=True)
            if version > info.version:
                info.version = version
            info.prepared = max(info.prepared, version)
            for name in acked:
                info.holders[name] = max(info.holders.get(name, 0), version)

    @operation
    def locate_range(
        self, file_key: Hashable, first: int, count: int
    ) -> List[Tuple[int, int, List[str]]]:
        """Where to read each block: ``(index, committed version,
        current holder names)``.  Holders are ordered deterministically
        (registration order, live first) — the client reads from the
        head and fails over down the list.  Version 0 / no holders means
        the block was never written: the client serves zeros."""
        self._maybe_scan()
        out: List[Tuple[int, int, List[str]]] = []
        for index in range(first, first + count):
            info = self.block_map.block(file_key, index)
            if info is None or info.version == 0:
                out.append((index, 0, []))
                continue
            current = info.current_holders()
            # Live holders first: failover order should try reachable
            # replicas before ones the last scan saw dead.
            entries = self._datanodes
            current.sort(key=lambda n: 0 if entries[n].alive else 1)
            out.append((index, info.version, current))
        return out

    @operation
    def truncate(self, file_key: Hashable, length: int) -> None:
        """Drop blocks wholly past the new EOF and delete their replicas
        on every reachable holder.  The boundary block keeps its stale
        tail bytes; readers clamp to the metadata length so they are
        never served."""
        first_dropped = (length + PAGE_SIZE - 1) // PAGE_SIZE
        dropped = self.block_map.drop_from(file_key, first_dropped)
        by_node: Dict[str, List[int]] = {}
        for index, info in dropped:
            for name in info.holders:
                by_node.setdefault(name, []).append(index)
        for name, indices in by_node.items():
            entry = self._datanodes[name]
            try:
                entry.service.delete_blocks(file_key, indices)
            except TransientNetworkError:
                # Unreachable holder: its orphaned replicas are dropped
                # from the map but their versions stay burned (the block
                # map's per-file floor), so a later write to those
                # indices is guaranteed a strictly higher version — the
                # orphan gets overwritten or ignored, never acked as
                # current.
                continue

    # ------------------------------------------------------------- repair
    def _repair_block(
        self, file_key: Hashable, index: int, info: BlockInfo
    ) -> bool:
        """One repair move for one block, if it needs one: copy the
        committed version from a live current holder onto a live node
        that lacks it (a fresh replica or a stale holder catching up).
        Returns True if a copy was made."""
        live = self._live()
        if not live:
            return False
        live_names = {e.name for e in live}
        current = [n for n in info.current_holders() if n in live_names]
        if not current:
            return False  # committed data unreachable until a holder recovers
        need = min(self.replication, len(live))
        if len(current) >= need:
            return False
        # Prefer catching up a stale holder (it already has placement);
        # otherwise pick the emptiest live non-holder.
        stale = [n for n in info.stale_holders() if n in live_names]
        if stale:
            target_name = stale[0]
        else:
            candidates = [e.name for e in live if e.name not in info.holders]
            if not candidates:
                return False
            candidates.sort(key=self.block_map.blocks_held_by)
            target_name = candidates[0]
        source = self._datanodes[current[0]]
        target = self._datanodes[target_name]
        try:
            stored = target.service.pull_block(file_key, index, source.service)
        except TransientNetworkError:
            return False
        info.holders[target_name] = stored
        self.world.counters.inc("shard.nn.re_replications")
        return True

    def _repair(self, max_moves: int) -> int:
        moves = 0
        for file_key, index, info in self.block_map.blocks():
            if moves >= max_moves:
                break
            # A block may need several copies; loop until satisfied or
            # out of budget.
            while moves < max_moves and self._repair_block(file_key, index, info):
                moves += 1
        return moves

    @operation
    def repair(self) -> int:
        """Run the repair state machine to completion.  Returns the
        number of block copies made."""
        return self._repair(self.block_map.total_blocks() * self.replication)

    @operation
    def under_replicated_count(self) -> int:
        """Blocks whose live, current replica count is below
        min(replication, live datanodes)."""
        live_names = {e.name for e in self._live()}
        need_cap = min(self.replication, len(live_names))
        count = 0
        for _, _, info in self.block_map.blocks():
            current = [n for n in info.current_holders() if n in live_names]
            if len(current) < need_cap:
                count += 1
        return count

    @operation
    def fully_replicated(self) -> bool:
        """True when every block has min(replication, live datanodes)
        live, current replicas — the bench's recovery acceptance check."""
        return self.under_replicated_count() == 0

    # ----------------------------------------------------------- rebalance
    def _rebalance(self, max_moves: int) -> int:
        """Move replicas from the fullest live datanode to the emptiest
        while their replica counts differ by at least ``REBALANCE_GAP``.
        Fullness ties break toward the node that has absorbed the most
        network bytes (the hot one sheds load first)."""
        moves = 0
        network = self.world.network
        while moves < max_moves:
            live = self._live()
            if len(live) < 2:
                return moves
            loads = [
                (
                    self.block_map.blocks_held_by(e.name),
                    network.inbound_bytes(e.service.domain.node),
                    e,
                )
                for e in live
            ]
            source = max(loads, key=lambda t: (t[0], t[1]))
            target = min(loads, key=lambda t: (t[0], t[1]))
            if source[0] - target[0] < REBALANCE_GAP:
                return moves
            if not self._move_one(source[2], target[2]):
                return moves
            moves += 1
        return moves

    def _move_one(self, source: DataNodeEntry, target: DataNodeEntry) -> bool:
        """Migrate one committed replica from ``source`` to ``target``:
        copy, record the new holder, then delete the source copy.  The
        copy is recorded the moment it lands — before the delete — so a
        source that dies mid-move leaves no unrecorded replica behind
        (an orphan at the committed version would feed the version-reuse
        hazard and leak storage).  The delete is best-effort: if it
        cannot reach the source, both copies stay recorded and the
        surplus is cleaned up by a later pass."""
        for file_key, index, info in self.block_map.blocks():
            if target.name in info.holders:
                continue
            if info.holders.get(source.name) != info.version or info.version == 0:
                continue
            try:
                stored = target.service.pull_block(file_key, index, source.service)
            except TransientNetworkError:
                return False
            info.holders[target.name] = stored
            try:
                source.service.delete_blocks(file_key, [index])
            except TransientNetworkError:
                # Source unreachable after the copy landed: keep it in
                # the holder set (its replica still exists) and let the
                # move count — the target now holds the block.
                pass
            else:
                del info.holders[source.name]
            self.world.counters.inc("shard.nn.rebalanced")
            return True
        return False

    @operation
    def rebalance(self, max_moves: int = 8) -> int:
        """Run the rebalancer explicitly; returns replicas moved."""
        return self._rebalance(max_moves)
