"""Figure reproductions — scenario builders.

Each ``fig*`` function constructs the configuration drawn in the paper's
figure, exercises it, and returns a dictionary of observables (channel
counts, coherence outcomes, per-layer traffic) that the corresponding
benchmark prints and the integration tests assert on.
"""

from __future__ import annotations

from typing import Dict

from repro.fs.compfs import MAGIC, CompFs, write_image
from repro.fs.dfs import DfsLayer, export_dfs, mount_remote
from repro.fs.fs_interfaces import Fs
from repro.fs.mirrorfs import MirrorFs
from repro.fs.sfs import create_sfs
from repro.fs.stack import describe_stack, domains_of, stack_depth
from repro.ipc.domain import Credentials
from repro.ipc.narrow import narrow
from repro.naming.context import NamingContext
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights
from repro.vm.cache_object import CacheObject, FsCache
from repro.vm.memory_object import MemoryObject
from repro.vm.pager_object import FsPager, PagerObject


def fig01_node_structure() -> Dict[str, object]:
    """Figure 1: major system components of a Spring node."""
    from repro.fs.creators import register_standard_creators
    from repro.world import World

    world = World()
    node = world.create_node("spring-node")
    register_standard_creators(node)
    device = BlockDevice(node.nucleus, "sd0", 4096)
    create_sfs(node, device)
    return {
        "node": node.name,
        "domains": sorted(node.domains),
        "vmm_in_nucleus": node.vmm.domain is node.nucleus,
        "root_contexts": [name for name, _ in node.root_context.list_bindings()],
        "fs_creators": [
            name for name, _ in node.fs_creators.list_bindings()
        ],
    }


def fig02_pager_cache_channels() -> Dict[str, object]:
    """Figure 2: pager-cache object topology.

    Pager 1 serves two distinct memory objects cached by VMM 1 (two
    channels); Pager 2 serves one memory object cached at both VMM 1 and
    VMM 2 (one channel per VMM).
    """
    from repro.world import World

    world = World()
    node1 = world.create_node("node1")
    node2 = world.create_node("node2")

    # Pager 1: an SFS on node1; two files mapped by node1's VMM.
    device1 = BlockDevice(node1.nucleus, "sd0", 4096)
    stack1 = create_sfs(node1, device1, name="sfs1")
    user1 = world.create_user_domain(node1, "user1")
    with user1.activate():
        file_a = stack1.top.create_file("a.dat")
        file_a.write(0, b"a" * PAGE_SIZE)
        file_b = stack1.top.create_file("b.dat")
        file_b.write(0, b"b" * PAGE_SIZE)
        aspace1 = node1.vmm.create_address_space("user1")
        aspace1.map(file_a, AccessRights.READ_ONLY).read(0, 16)
        aspace1.map(file_b, AccessRights.READ_ONLY).read(0, 16)

    # Pager 2: a DFS (serving binds itself) on node1; one file mapped by
    # both VMMs.
    device2 = BlockDevice(node1.nucleus, "sd1", 4096)
    stack2 = create_sfs(node1, device2, name="sfs2")
    dfs_domain = node1.create_domain("dfs", Credentials("dfs", privileged=True))
    dfs = DfsLayer(dfs_domain, forward_local_binds=False)
    dfs.stack_on(stack2.top)
    with user1.activate():
        shared = dfs.create_file("shared.dat")
        shared.write(0, b"s" * PAGE_SIZE)
        aspace1.map(shared, AccessRights.READ_ONLY).read(0, 16)
    user2 = world.create_user_domain(node2, "user2")
    with user2.activate():
        shared_remote = dfs.resolve("shared.dat")
        aspace2 = node2.vmm.create_address_space("user2")
        aspace2.map(shared_remote, AccessRights.READ_ONLY).read(0, 16)

    pager1_channels = len(stack1.coherency_layer.channels)
    pager2_channels = len(dfs.channels)
    return {
        "pager1_channels_to_vmm1": pager1_channels,
        "pager2_channels": pager2_channels,
        "vmm1_caches": len(node1.vmm.live_caches()),
        "vmm2_caches": len(node2.vmm.live_caches()),
        "expected": "pager1: 2 channels; pager2: 2 channels (one per VMM)",
    }


def fig03_configuration() -> Dict[str, object]:
    """Figure 3: implementation vs administrative decisions — fs3
    (compression) on fs1; fs4 (mirroring) on fs1 and fs2."""
    from repro.world import World

    world = World()
    node = world.create_node("node")
    device1 = BlockDevice(node.nucleus, "sd0", 4096)
    device2 = BlockDevice(node.nucleus, "sd1", 4096)
    fs1 = create_sfs(node, device1, name="fs1").top
    fs2 = create_sfs(node, device2, name="fs2").top

    fs3_domain = node.create_domain("fs3", Credentials("fs3", privileged=True))
    fs3 = CompFs(fs3_domain)
    fs3.stack_on(fs1)
    node.fs_context.bind("fs3", fs3)

    fs4_domain = node.create_domain("fs4", Credentials("fs4", privileged=True))
    fs4 = MirrorFs(fs4_domain)
    fs4.stack_on(fs1)
    fs4.stack_on(fs2)
    node.fs_context.bind("fs4", fs4)

    user = world.create_user_domain(node)
    with user.activate():
        mirrored = fs4.create_file("replicated.dat")
        mirrored.write(0, b"important data")
        replica1 = fs1.resolve("replicated.dat").read(0, 14)
        replica2 = fs2.resolve("replicated.dat").read(0, 14)
    return {
        "fs3_unders": [f.fs_type() for f in fs3.under_layers()],
        "fs4_unders": [f.fs_type() for f in fs4.under_layers()],
        "fs4_depth": stack_depth(fs4),
        "replicas_match": replica1 == replica2 == b"important data",
        "exported": [name for name, _ in node.fs_context.list_bindings()],
        "diagram": describe_stack(fs4),
    }


def fig04_dual_role() -> Dict[str, object]:
    """Figure 4: one file server as pager (to the VMM) and cache manager
    (to another pager) at the same time."""
    from repro.world import World

    world = World()
    node = world.create_node("node")
    device = BlockDevice(node.nucleus, "sd0", 4096)
    stack = create_sfs(node, device)
    coherency = stack.coherency_layer
    user = world.create_user_domain(node)
    with user.activate():
        f = stack.top.create_file("x.dat")
        f.write(0, b"x" * PAGE_SIZE)
        aspace = node.vmm.create_address_space("user")
        aspace.map(f, AccessRights.READ_ONLY).read(0, 8)
    state = next(iter(coherency._states.values()))
    up = coherency.channels.all_channels()
    down = state.down_channel
    return {
        "acts_as_pager_to_vmm": len(up) == 1
        and isinstance(up[0].pager_object, PagerObject),
        "acts_as_cache_manager_below": down is not None
        and isinstance(down.cache_object, CacheObject),
        "up_cache_is_plain_cache": narrow(up[0].cache_object, FsCache) is None,
        "down_pager_is_fs_pager": narrow(down.pager_object, FsPager) is not None,
    }


def _compfs_scenario(coherent: bool) -> Dict[str, object]:
    """Shared machinery for Figures 5 and 6: COMPFS over SFS with both a
    COMPFS client and a direct SFS client of the same underlying file."""
    from repro.world import World

    world = World()
    node = world.create_node("node")
    device = BlockDevice(node.nucleus, "sd0", 8192)
    stack = create_sfs(node, device)
    compfs_domain = node.create_domain("compfs", Credentials("compfs", True))
    compfs = CompFs(compfs_domain, coherent=coherent)
    compfs.stack_on(stack.top)
    node.fs_context.bind("compfs", compfs)

    user = world.create_user_domain(node)
    observations: Dict[str, object] = {"coherent_mode": coherent}
    with user.activate():
        f_comp = compfs.create_file("doc.dat")
        original = b"original content " * 200
        f_comp.write(0, original)
        f_comp.sync()
        stored = stack.top.resolve("doc.dat")
        observations["stored_bytes"] = compfs.space_report(f_comp)["stored_bytes"]
        observations["plain_bytes"] = len(original)
        observations["stored_is_compressed"] = stored.read(0, 4) == MAGIC

        # Prime COMPFS's plaintext cache.
        f_comp2 = compfs.resolve("doc.dat")
        f_comp2.read(0, 16)

        # Direct write to file_SFS (a new compressed image).
        replacement = b"replaced by a direct SFS client " * 20
        write_image(stack.top.resolve("doc.dat"), replacement)

        # Does COMPFS observe it?
        seen = compfs.resolve("doc.dat").read(0, len(replacement))
        observations["compfs_sees_direct_write"] = seen == replacement
        # Coherency actions the lower layer performed against COMPFS's
        # C3 cache: block flush/invalidate plus attribute invalidation.
        observations["flush_events_at_compfs"] = (
            world.counters.get("compfs.flush_back")
            + world.counters.get("compfs.delete_range")
            + world.counters.get("compfs.invalidate_attributes")
        )
    return observations


def fig05_compfs_case1() -> Dict[str, object]:
    """Figure 5: COMPFS without the C3-P3 connection — mappings of
    file_COMP and file_SFS are NOT coherent."""
    return _compfs_scenario(coherent=False)


def fig06_compfs_case2() -> Dict[str, object]:
    """Figure 6: COMPFS as cache manager to SFS — all views coherent."""
    return _compfs_scenario(coherent=True)


def fig07_dfs() -> Dict[str, object]:
    """Figure 7: DFS on SFS; local binds forwarded, remote traffic
    coherent with local access."""
    from repro.world import World

    world = World()
    server = world.create_node("server")
    client = world.create_node("client")
    device = BlockDevice(server.nucleus, "sd0", 8192)
    stack = create_sfs(server, device)
    dfs = export_dfs(server, stack.top)
    mount_remote(client, server, "dfs")

    server_user = world.create_user_domain(server, "server-user")
    client_user = world.create_user_domain(client, "client-user")
    with server_user.activate():
        f = dfs.create_file("shared.dat")
        f.write(0, b"server view " * 400)

        # Local client maps file_DFS: the bind must be forwarded so the
        # local VMM's channel goes to SFS (coherency layer), not to DFS.
        aspace = server.vmm.create_address_space("server-user")
        local_file = dfs.resolve("shared.dat")
        mapping = aspace.map(local_file, AccessRights.READ_WRITE)
        mapping.read(0, 12)
    forwarded = world.counters.get("dfs.bind_forwarded")
    local_channel_pager = mapping.cache.channel.pager_object

    with client_user.activate():
        remote_file = client.fs_context.resolve("dfs@server").resolve("shared.dat")
        remote_aspace = client.vmm.create_address_space("client-user")
        remote_mapping = remote_aspace.map(remote_file, AccessRights.READ_WRITE)
        # read_copy: the value is compared after the write below, and a
        # plain mapped read is a live view of the page it's about to dirty.
        before = remote_mapping.read_copy(0, 12)
        remote_mapping.write(0, b"CLIENT WRITE")

    # Local mapping must now observe the remote write (recalled through
    # DFS's P2-C2 channel and the remote channel fan-out).
    with server_user.activate():
        after_local = mapping.read(0, 12)

    return {
        "binds_forwarded": forwarded,
        "local_channel_bypasses_dfs": isinstance(
            local_channel_pager, PagerObject
        )
        and "coh" in local_channel_pager.layer.fs_type(),
        "remote_read_matches": before == b"server view ",
        "local_sees_remote_write": after_local == b"CLIENT WRITE",
        "network_messages": world.network.messages,
        "dfs_served_binds": world.counters.get("dfs.bind_served"),
    }


def fig08_interface_hierarchy() -> Dict[str, object]:
    """Figure 8: fs + naming_context -> stackable_fs; creator returns
    stackable_fs; narrowing behaves as sec. 4.3 describes."""
    from repro.world import World

    world = World()
    node = world.create_node("node")
    device = BlockDevice(node.nucleus, "sd0", 4096)
    stack = create_sfs(node, device)
    user = world.create_user_domain(node)
    with user.activate():
        f = stack.top.create_file("t.dat")
        f.write(0, b"t" * PAGE_SIZE)
        aspace = node.vmm.create_address_space("u")
        mapping = aspace.map(f, AccessRights.READ_ONLY)
        mapping.read(0, 8)  # fault once so both channel directions exist

    coherency = stack.coherency_layer
    state = next(iter(coherency._states.values()))
    up_channel = coherency.channels.all_channels()[0]
    return {
        "stackable_fs_is_fs": isinstance(coherency, Fs),
        "stackable_fs_is_naming_context": isinstance(coherency, NamingContext),
        "file_is_memory_object": isinstance(f, MemoryObject),
        # The VMM is a *plain* cache manager: SFS's attempt to narrow its
        # cache object to fs_cache must fail (paper sec. 4.3).
        "vmm_cache_is_plain_cache": narrow(up_channel.cache_object, FsCache)
        is None,
        "disk_pager_narrows_to_fs_pager": narrow(
            state.down_channel.pager_object, FsPager
        )
        is not None,
        "coherency_cache_obj_is_fs_cache": narrow(
            state.down_channel.cache_object, FsCache
        )
        is not None,
    }


def fig09_full_stack() -> Dict[str, object]:
    """Figure 9 + sec. 4.5: DFS stacked on COMPFS stacked on SFS; a
    remote read flows DFS -> COMPFS -> SFS -> disk, decompressing on the
    way, with every view coherent."""
    from repro.fs.creators import (
        LayerSpec,
        build_stack,
        register_standard_creators,
    )
    from repro.world import World

    world = World()
    server = world.create_node("server")
    client = world.create_node("client")
    register_standard_creators(server)
    device = BlockDevice(server.nucleus, "sd0", 8192)
    sfs = create_sfs(server, device)

    layers = build_stack(
        server,
        sfs.top,
        [LayerSpec("compfs", {"coherent": True}), LayerSpec("dfs")],
        export_as="stacked",
        export_all=True,
    )
    compfs, dfs = layers
    mount_remote(client, server, "stacked")

    server_user = world.create_user_domain(server, "server-user")
    client_user = world.create_user_domain(client, "client-user")
    payload = b"distributed compressed data " * 300
    with server_user.activate():
        f = dfs.create_file("big.dat")
        f.write(0, payload)
        f.sync()

    counters_before = world.counters.snapshot()
    with client_user.activate():
        remote = client.fs_context.resolve("stacked@server")
        rf = remote.resolve("big.dat")
        data = rf.read(0, len(payload))
    traffic = world.counters.delta_since(counters_before)

    with server_user.activate():
        stored_len = compfs.space_report(compfs.resolve("big.dat"))["stored_bytes"]

    return {
        "remote_read_correct": data == payload,
        "plain_bytes": len(payload),
        "stored_bytes": stored_len,
        "layer_order": describe_stack(dfs),
        "depth": stack_depth(dfs),
        "remote_read_traffic": {
            k: v
            for k, v in traffic.items()
            if k.startswith(
                ("dfs.", "compfs.", "coherency.", "disk.", "invoke.", "op.")
            )
        },
        "network_messages": world.network.messages,
    }


def fig10_sfs_structure() -> Dict[str, object]:
    """Figure 10: Spring SFS = coherency layer over disk layer, each in
    its own domain; all files exported via the coherency layer."""
    from repro.world import World

    world = World()
    node = world.create_node("node")
    device = BlockDevice(node.nucleus, "sd0", 4096)
    stack = create_sfs(node, device, placement="two_domains")
    exported = node.fs_context.resolve("sfs")
    return {
        "layers": [layer.fs_type() for layer in [stack.coherency_layer, stack.disk_layer]],
        "domains": domains_of(stack.top),
        "separate_domains": stack.disk_layer.domain is not stack.coherency_layer.domain,
        "exported_is_coherency_layer": exported is stack.coherency_layer,
        "diagram": describe_stack(stack.top),
    }
