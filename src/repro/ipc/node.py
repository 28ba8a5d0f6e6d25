"""Nodes.

A node models one machine: a nucleus (kernel) domain hosting the VMM,
plus any number of server and user domains (paper Figure 1).  Nodes are
created through :meth:`repro.world.World.create_node`, which also boots
the node's VMM and shared name-space root.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.ipc.domain import Credentials, Domain

if TYPE_CHECKING:
    from repro.vm.vmm import Vmm


class Node:
    """One machine in the simulated distributed system."""

    def __init__(self, world, name: str) -> None:
        self.world = world
        self.name = name
        self.domains: Dict[str, Domain] = {}
        #: True while the machine is down: every message to or from it
        #: raises :class:`~repro.errors.NodeCrashedError`.
        self.crashed = False
        #: Incarnation number, bumped on every :meth:`recover`.  Server
        #: layers stamp per-client state with the epoch it was
        #: registered under; a mismatch after recovery is how they know
        #: that state was lost with the crash (Lustre-style recovery).
        self.epoch = 0
        #: Called (no args) when the node crashes — server layers hosted
        #: here register to drop the volatile state a real crash loses.
        self._on_crash: List[Callable[[], None]] = []
        #: The nucleus domain — kernel + VMM live here.
        self.nucleus = self.create_domain(
            "nucleus", Credentials("nucleus", privileged=True)
        )
        #: Per-node virtual memory manager; attached by repro.vm.vmm at
        #: world.create_node time (avoids an import cycle).
        self.vmm: Optional["Vmm"] = None
        #: Objects this node exposes to out-of-process clients over a
        #: real transport (see :meth:`expose` / :meth:`serve`).  Empty —
        #: and cost-free — unless the node is actually served.
        self.exports: Dict[str, object] = {}

    # --- out-of-process serving --------------------------------------------
    def expose(self, name: str, obj: object) -> None:
        """Publish ``obj`` under ``name`` for transport clients (the
        wire analogue of binding into the node's name space)."""
        self.exports[name] = obj

    def serve(self, host: str = "127.0.0.1", port: int = 0):
        """A :class:`~repro.ipc.transport.SocketServer` over this
        node's exports — TCP clients in other OS processes invoke them
        via :class:`~repro.ipc.transport.SocketTransport`.  The caller
        owns the server lifecycle (``await start()`` or wrap in a
        :class:`~repro.ipc.transport.ServerThread`)."""
        from repro.ipc.transport import SocketServer

        return SocketServer(self.exports, host=host, port=port)

    # --- failure / recovery ------------------------------------------------
    def add_crash_listener(self, fn: Callable[[], None]) -> None:
        """Register ``fn`` to run when this node crashes."""
        self._on_crash.append(fn)

    def crash(self) -> None:
        """The machine goes down.  Volatile server state is lost (crash
        listeners fire); messages to/from the node fail until
        :meth:`recover`."""
        if self.crashed:
            return
        self.crashed = True
        for fn in self._on_crash:
            fn()

    def recover(self) -> None:
        """The machine comes back up under a new epoch.  Clients holding
        pre-crash state see the epoch bump and re-register (see
        :mod:`repro.fs.dfs`)."""
        if not self.crashed:
            return
        self.crashed = False
        self.epoch += 1

    def create_domain(
        self, name: str, credentials: Optional[Credentials] = None
    ) -> Domain:
        """Create a new address space on this node.

        Domain names are unique per node; reusing one is a configuration
        error.
        """
        if name in self.domains:
            raise ValueError(f"domain {name!r} already exists on node {self.name!r}")
        domain = Domain(self, name, credentials)
        self.domains[name] = domain
        return domain

    def __repr__(self) -> str:
        return f"<Node {self.name!r} domains={sorted(self.domains)}>"
