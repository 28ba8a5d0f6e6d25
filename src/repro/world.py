"""The simulation world.

A :class:`World` is one complete simulated installation: a virtual
clock, a cost model, a network, and a set of nodes each booted with a
nucleus domain, a VMM, and the standard name-space contexts.  Every
benchmark, example, and integration test starts by constructing a World.

The equivalent in the paper is the physical testbed; the World's
determinism (no wall clock, no global randomness) is what makes the
reproduced tables exactly repeatable.
"""

from __future__ import annotations

from typing import Dict, List

from repro.ipc.domain import Credentials, Domain
from repro.ipc.network import Network
from repro.ipc.node import Node
from repro.sim.clock import SimClock
from repro.sim.costs import Charger, CostModel


class Counters:
    """Named event counters (invocation paths, protocol events, ...).

    File system layers and the VM use these to expose *mechanism*
    observables — e.g. how many page-ins crossed a layer boundary — which
    several figure reproductions assert on.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        #: The counts themselves.  The ``@operation`` wrapper increments
        #: its two keys here inline: it runs on every invocation, and a
        #: call to :meth:`inc` would be a Python frame each.
        self.counts: Dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        try:
            self.counts[name] += amount
        except KeyError:
            self.counts[name] = amount

    def get(self, name: str) -> int:
        return self.counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        return dict(self.counts)

    def reset(self) -> None:
        self.counts.clear()

    def delta_since(self, snapshot: Dict[str, int]) -> Dict[str, int]:
        """Counters incremented since ``snapshot`` was taken."""
        return {
            name: value - snapshot.get(name, 0)
            for name, value in self.counts.items()
            if value - snapshot.get(name, 0) != 0
        }


class World:
    """One simulated installation of Spring machines."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self.cost_model = CostModel()
        self.charge = Charger(self.clock, self.cost_model)
        self.network = Network(self)
        self.counters = Counters()
        self.nodes: Dict[str, Node] = {}
        self._next_oid = 1
        self._name_caches: List[object] = []
        #: Every mounted :class:`~repro.storage.volume.Volume`, so
        #: :meth:`save` can quiesce the whole installation in one sweep.
        self._volumes: List[object] = []
        #: Optional invocation retry knobs (see repro.ipc.retry); None =
        #: transient failures surface immediately (the default).
        self.retry_policy = None
        #: Lazily created discrete-event scheduler (concurrent mode);
        #: None until :meth:`scheduler` is first called.
        self._scheduler = None

    # --- concurrency ----------------------------------------------------------
    def scheduler(self):
        """The world's discrete-event scheduler (created on first use) —
        the entry point to concurrent mode: spawn client coroutines on
        it and :meth:`~repro.sim.scheduler.Scheduler.run`.  Overlapping
        requests do not contend: each runs in its own clock frame, which
        carries its charges and the fault plane's link effects on its
        sends.  Sequential code never touches it."""
        if self._scheduler is None:
            from repro.sim.scheduler import Scheduler

            self._scheduler = Scheduler(self)
        return self._scheduler

    # --- fault tolerance ------------------------------------------------------
    def install_fault_plan(self, plan):
        """Install a scripted failure schedule (see repro.sim.faults);
        returns the live :class:`~repro.sim.faults.FaultPlane`."""
        from repro.sim.faults import FaultPlane

        plane = FaultPlane(self, plan)
        self.network.install_fault_plane(plane)
        return plane

    def enable_retries(self, policy=None):
        """Turn on invocation-layer retry for transient network
        failures; returns the installed policy (the defaults of
        :class:`~repro.ipc.retry.RetryPolicy` if none is given)."""
        from repro.ipc.retry import RetryPolicy

        self.retry_policy = policy or RetryPolicy()
        return self.retry_policy

    # --- identity ------------------------------------------------------------
    def next_oid(self) -> int:
        oid = self._next_oid
        self._next_oid += 1
        return oid

    # --- topology ------------------------------------------------------------
    def create_node(self, name: str) -> Node:
        """Boot a node: nucleus domain, VMM, and standard name space."""
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        node = Node(self, name)
        self.nodes[name] = node
        # Late imports: the VMM and naming bootstrap sit above ipc in the
        # layering but below World in the public API.
        from repro.vm.vmm import Vmm

        node.vmm = Vmm(node.nucleus)
        from repro.naming.bootstrap import boot_naming

        boot_naming(node)
        return node

    def create_user_domain(self, node: Node, name: str = "user") -> Domain:
        """Convenience: an unprivileged client domain on ``node``."""
        return node.create_domain(name, Credentials(name, privileged=False))

    # --- persistent worlds -----------------------------------------------------
    def register_volume(self, volume: object) -> None:
        """Track a mounted volume (Volume.mkfs/mount call this)."""
        if volume not in self._volumes:
            self._volumes.append(volume)

    def create_image(
        self,
        domain: Domain,
        path: str,
        num_blocks: int,
        block_size: int = 4096,
        name: str = "img",
    ):
        """A :class:`~repro.storage.block_device.BlockDevice` over a NEW
        sparse image file at ``path`` — format it with ``Volume.mkfs``
        (or ``create_sfs(..., format_device=True)``) and the world's
        file state survives this process."""
        from repro.storage.block_device import BlockDevice
        from repro.storage.blockstore import ImageBlockStore

        store = ImageBlockStore.create(path, num_blocks, block_size)
        return BlockDevice(domain, name, store=store)

    def open_image(self, domain: Domain, path: str, name: str = "img"):
        """A :class:`~repro.storage.block_device.BlockDevice` over an
        EXISTING image file (geometry comes from the image header) —
        mount it with ``Volume.mount`` or ``create_sfs(...,
        format_device=False)`` to reopen a previously saved world."""
        from repro.storage.block_device import BlockDevice
        from repro.storage.blockstore import ImageBlockStore

        return BlockDevice(domain, name, store=ImageBlockStore.open(path))

    def save(self) -> int:
        """Quiesce every file system in the installation: push dirty
        pages and attributes down every bound stack (``sync_fs``), then
        cleanly unmount every registered volume — ordered metadata
        flush, CLEAN superblock, backing-store flush.  Volumes on image
        devices are durable on disk afterwards.  The world stays usable:
        the next mutation lazily re-dirties its volume's superblock.
        Returns total blocks written."""
        for node in self.nodes.values():  # each booted with an fs context
            for _name, obj in node.fs_context.list_bindings():
                sync = getattr(obj, "sync_fs", None)
                if sync is not None:
                    sync()
        written = 0
        for volume in self._volumes:
            written += volume.unmount()  # type: ignore[attr-defined]
        return written

    # --- name-cache invalidation fan-out ---------------------------------------
    def register_name_cache(self, cache: object) -> None:
        self._name_caches.append(cache)

    def name_event(self, context: object, component: str) -> None:
        """A context binding changed; notify every name cache."""
        for cache in self._name_caches:
            cache.on_name_event(context, component)  # type: ignore[attr-defined]
