"""Assembly helper for a sharded DFS cluster.

One call builds the whole topology: a metadata machine running an SFS
(namespace + attributes) and the NameNode, N datanode machines each
exporting a :class:`~repro.dfs.datanode.DataNodeService`, and a client
machine where the :class:`~repro.dfs.layer.ShardedDfsLayer` stacks on
the remote metadata SFS — clients stripe data to the datanodes directly
while the namespace lives on the metadata server.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.ipc.domain import Credentials
from repro.ipc.node import Node
from repro.storage.block_device import BlockDevice
from repro.world import World

from repro.fs.sfs import SfsStack, create_sfs

from repro.dfs.datanode import DataNodeService
from repro.dfs.layer import ShardedDfsLayer
from repro.dfs.namenode import NameNodeService


#: Size of the metadata machine's block device.
META_DEVICE_BLOCKS = 4096
#: The name the layer's domain runs under and the client's mount point.
MOUNT_NAME = "shardfs"


@dataclasses.dataclass
class ShardedCluster:
    """The assembled topology, for tests and benchmarks to poke at."""

    world: World
    meta: Node
    client: Node
    datanode_nodes: List[Node]
    datanodes: Dict[str, DataNodeService]
    namenode: NameNodeService
    layer: ShardedDfsLayer
    meta_sfs: SfsStack


def create_sharded_dfs(
    world: Optional[World] = None,
    datanodes: int = 3,
    replication: int = 3,
    write_quorum: int = 2,
    read_quorum: int = 1,
    heartbeat_interval_us: float = 5_000.0,
    server_slots: Optional[int] = None,
) -> ShardedCluster:
    """Build and wire a sharded DFS; returns the :class:`ShardedCluster`.

    ``server_slots`` installs a finite :class:`ServiceQueue` on every
    datanode (concurrent mode), so overlapping block ops queue and
    charge ``server_queue_wait`` exactly like the single-server DFS
    benchmarks do.
    """
    world = world or World()
    meta = world.create_node("meta")
    device = BlockDevice(meta.nucleus, "md0", META_DEVICE_BLOCKS)
    meta_sfs = create_sfs(meta, device, name="shardmeta")

    nn_domain = meta.create_domain(
        "namenode", Credentials("namenode", privileged=True)
    )
    namenode = NameNodeService(
        nn_domain,
        replication=replication,
        heartbeat_interval_us=heartbeat_interval_us,
    )

    dn_nodes: List[Node] = []
    services: Dict[str, DataNodeService] = {}
    for i in range(datanodes):
        node = world.create_node(f"dn{i}")
        if server_slots is not None:
            node.install_server_queue(server_slots)
        domain = node.create_domain(
            "datanode", Credentials(f"dn{i}", privileged=True)
        )
        service = DataNodeService(domain, f"dn{i}")
        namenode.register_datanode(f"dn{i}", service)
        dn_nodes.append(node)
        services[f"dn{i}"] = service

    client = world.create_node("client")
    layer_domain = client.create_domain(
        MOUNT_NAME, Credentials(MOUNT_NAME, privileged=True)
    )
    layer = ShardedDfsLayer(
        layer_domain,
        namenode,
        write_quorum=write_quorum,
        read_quorum=read_quorum,
    )
    for name, service in services.items():
        layer.attach_datanode(name, service)
    layer.stack_on(meta_sfs.top)
    client.fs_context.bind(MOUNT_NAME, layer)

    return ShardedCluster(
        world=world,
        meta=meta,
        client=client,
        datanode_nodes=dn_nodes,
        datanodes=services,
        namenode=namenode,
        layer=layer,
        meta_sfs=meta_sfs,
    )
