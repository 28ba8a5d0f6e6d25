"""Inter-node network model.

Replaces the paper's machine-to-machine transport (DESIGN.md sec. 2).
Charges a round-trip plus per-KB payload cost for each cross-node
invocation, counts messages and bytes per node pair, and supports
failure injection — ad-hoc partitions for tests, or a full scripted
:class:`repro.sim.faults.FaultPlane` (drops, delays, duplicates,
crashes) installed via :meth:`repro.world.World.install_fault_plan`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Set, Tuple

from repro.errors import NodeCrashedError, TransientNetworkError

if TYPE_CHECKING:
    from repro.ipc.node import Node
    from repro.sim.faults import FaultPlane


class NetworkPartitionError(TransientNetworkError):
    """The two nodes cannot currently exchange messages.  Transient in
    the retry sense: links heal."""


class Network:
    """The single network connecting all nodes of a world."""

    def __init__(self, world) -> None:
        self.world = world
        self.messages = 0
        self.bytes_moved = 0
        #: (src, dst) -> message count.
        self.per_pair: Dict[Tuple[str, str], int] = {}
        #: (src, dst) -> bytes carried (requests and piggybacked replies
        #: both count toward the direction they travel).
        self.per_pair_bytes: Dict[Tuple[str, str], int] = {}
        self._partitions: Set[FrozenSet[str]] = set()
        #: Scripted failure schedule; None = no faults (the default).
        self.fault_plane: Optional["FaultPlane"] = None

    # --- traffic ----------------------------------------------------------
    def transfer(
        self, src: "Node", dst: "Node", nbytes: int, checked: bool = True
    ) -> None:
        """One request message from ``src`` to ``dst`` carrying ``nbytes``.

        Charges a full round trip (the reply's latency is part of the
        RTT); reply payload is charged separately via :meth:`payload`.
        With ``checked=False`` the reachability check and per-message
        fault effects are skipped — used by the compound layer to charge
        sends whose delivery was already validated when each sub-op was
        absorbed (see :meth:`repro.ipc.compound.CompoundRegion.flush`).

        Queueing (concurrent mode): when the destination node has a
        finite server queue installed, the message reserves a service
        slot *after* fault effects ran — so a fault-delayed message
        arrives late and only then competes for a slot (it does **not**
        hold one while delayed in the network), and a dropped message
        never occupies the server at all.  The wait is charged to
        ``server_queue_wait``; a duplicated message occupies two slots,
        the way a real server would service both copies.
        """
        duplicated = False
        plane = self.fault_plane
        # One test when nothing is scheduled, crashed or partitioned.
        if checked and (plane is not None or src.crashed or dst.crashed
                        or self._partitions):
            self._check_reachable(src, dst)
            if plane is not None:
                # May raise MessageDroppedError, charge a delay, or ask
                # for the message to be duplicated.
                duplicated = plane.on_send(src, dst, nbytes)
        queue = dst.server_queue
        if queue is not None:
            service_us = self.world.cost_model.server_service_time_us(nbytes)
            queue.admit(service_us)
            if duplicated:
                queue.admit(service_us)
        self._account(src, dst, nbytes)
        if duplicated:
            self._account(src, dst, nbytes)

    def _account(self, src: "Node", dst: "Node", nbytes: int) -> None:
        self.messages += 1
        self.bytes_moved += nbytes
        key = (src.name, dst.name)
        self.per_pair[key] = self.per_pair.get(key, 0) + 1
        self.per_pair_bytes[key] = self.per_pair_bytes.get(key, 0) + nbytes
        self.world.charge.network(nbytes)

    def payload(self, src: "Node", dst: "Node", nbytes: int) -> None:
        """Additional payload (e.g. a bulk reply) on an exchange whose
        round trip was already charged.  The reply rides the request's
        exchange, so scheduled fault events are *not* re-polled here —
        the request's send-time check covers the round trip."""
        if src.crashed or dst.crashed or self._partitions:
            self._check_reachable(src, dst, poll=False)
        self.bytes_moved += nbytes
        key = (src.name, dst.name)
        self.per_pair_bytes[key] = self.per_pair_bytes.get(key, 0) + nbytes
        self.world.charge.network_payload(nbytes)

    # --- failure injection -------------------------------------------------
    def partition(self, a: "Node", b: "Node") -> None:
        """Cut the link between two nodes (both directions)."""
        self._partitions.add(frozenset((a.name, b.name)))

    def heal(self, a: "Node", b: "Node") -> None:
        """Restore the link between two nodes."""
        self._partitions.discard(frozenset((a.name, b.name)))

    def heal_all(self) -> None:
        self._partitions.clear()

    def install_fault_plane(self, plane: "FaultPlane") -> None:
        self.fault_plane = plane

    def _check_reachable(
        self, src: "Node", dst: "Node", poll: bool = True
    ) -> None:
        if poll and self.fault_plane is not None:
            self.fault_plane.poll()
        if src.crashed or dst.crashed:
            down = src if src.crashed else dst
            raise NodeCrashedError(f"node {down.name!r} is crashed")
        partitions = self._partitions  # a set per message only when cut
        if partitions and frozenset((src.name, dst.name)) in partitions:
            raise NetworkPartitionError(
                f"network partition between {src.name!r} and {dst.name!r}"
            )

    def ensure_reachable(self, src: "Node", dst: "Node") -> None:
        """Public reachability check — raises if the pair is partitioned
        or either end is crashed, after applying any scheduled fault
        events whose time has arrived.  Used by the compound layer to
        fail a batched sub-operation *before* it executes server-side."""
        self._check_reachable(src, dst)

    def message_count(self, src: "Node", dst: "Node") -> int:
        return self.per_pair.get((src.name, dst.name), 0)

    def bytes_count(self, src: "Node", dst: "Node") -> int:
        """Bytes carried from ``src`` to ``dst`` (requests plus replies
        travelling that direction)."""
        return self.per_pair_bytes.get((src.name, dst.name), 0)

    def inbound_bytes(self, node: "Node") -> int:
        """Total bytes delivered *to* ``node`` from every peer — the
        per-node hotness signal the sharded-DFS rebalancer reads."""
        name = node.name
        return sum(
            nbytes
            for (_, dst), nbytes in self.per_pair_bytes.items()
            if dst == name
        )
