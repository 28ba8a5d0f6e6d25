#!/usr/bin/env python3
"""DFS + CFS: coherent file sharing across three machines (Figure 7 and
paper sec. 6.2).

A server exports its SFS through DFS; two client machines mount it.
Every view — the server's local mapping, both clients' mappings, and the
plain read/write interface — stays coherent, because coherency actions
fan out through the pager-cache channels.  CFS on a client then cuts
the attribute-fetch network traffic and serves reads and writes from its
own mapping of the remote file.

Run:  python examples/distributed_sharing.py
"""

from repro import AccessRights, World
from repro.fs import create_sfs, export_dfs, mount_remote, start_cfs
from repro.storage import BlockDevice


def main() -> None:
    world = World()
    server = world.create_node("server")
    client1 = world.create_node("client1")
    client2 = world.create_node("client2")

    device = BlockDevice(server.nucleus, "sd0", 8192)
    sfs = create_sfs(server, device)
    dfs = export_dfs(server, sfs.top)
    mount_remote(client1, server, "dfs")
    mount_remote(client2, server, "dfs")

    server_user = world.create_user_domain(server, "server-user")
    user1 = world.create_user_domain(client1, "user1")
    user2 = world.create_user_domain(client2, "user2")

    # The server creates a shared file.
    with server_user.activate():
        f = dfs.create_file("design.doc")
        f.write(0, b"v1: the server wrote this. " * 100)

    # Both clients map it into their address spaces.
    with user1.activate():
        rf1 = client1.fs_context.resolve("dfs@server").resolve("design.doc")
        m1 = client1.vmm.create_address_space("u1").map(
            rf1, AccessRights.READ_WRITE
        )
        print("client1 reads:", m1.read_copy(0, 27))
    with user2.activate():
        rf2 = client2.fs_context.resolve("dfs@server").resolve("design.doc")
        m2 = client2.vmm.create_address_space("u2").map(
            rf2, AccessRights.READ_WRITE
        )
        print("client2 reads:", m2.read_copy(0, 27))

    # client1 writes through its mapping; client2 and the server observe
    # it — the per-block MRSW protocol recalls the dirty block.
    with user1.activate():
        m1.write(0, b"v2: client1 changed this!  ")
    with user2.activate():
        print("client2 now sees:", m2.read_copy(0, 27))
    with server_user.activate():
        print("server now sees: ", dfs.resolve("design.doc").read(0, 27))
    print(f"network messages so far: {world.network.messages}")

    # --- CFS: attribute caching on the client ------------------------------------
    cfs = start_cfs(client1)
    with user1.activate():
        local = cfs.interpose(
            client1.fs_context.resolve("dfs@server").resolve("design.doc")
        )
        before = world.network.messages
        for _ in range(100):
            local.get_attributes()
        cfs_msgs = world.network.messages - before

        plain = client1.fs_context.resolve("dfs@server").resolve("design.doc")
        before = world.network.messages
        for _ in range(100):
            plain.get_attributes()
        plain_msgs = world.network.messages - before

    print(f"100 stats without CFS: {plain_msgs} network messages")
    print(f"100 stats with CFS:    {cfs_msgs} network messages")

    # CFS's data path: reads and writes go through its own mapping of the
    # remote file, and a sync pushes the dirty page back to the server.
    with user1.activate():
        local.write(0, b"v3: written through CFS    ")
        local.sync()
        print("client1 reads via CFS:", local.read(0, 27))
    print(f"virtual time: {world.clock.now_us / 1000:.1f} ms "
          f"({world.clock.charged('network') / 1000:.1f} ms on the network)")


if __name__ == "__main__":
    main()
