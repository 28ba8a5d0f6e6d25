#!/usr/bin/env python3
"""Composing layers: an encrypted, mirrored home directory.

Builds the stack

    cryptfs
      mirrorfs
        sfs (disk sd0)     sfs (disk sd1)

using the creator/configuration machinery of paper sec. 4.4-4.5, then
exercises it: data is encrypted before it ever reaches either replica,
both replicas hold identical ciphertext, and when one disk develops bad
blocks the mirror fails over transparently.

Run:  python examples/encrypted_mirror.py
"""

from repro import World
from repro.fs import (
    LayerSpec,
    build_stack,
    create_sfs,
    describe_stack,
    register_standard_creators,
)
from repro.storage import BlockDevice


def main() -> None:
    world = World()
    node = world.create_node("alpha")
    register_standard_creators(node)

    device_a = BlockDevice(node.nucleus, "sd0", 8192)
    device_b = BlockDevice(node.nucleus, "sd1", 8192)
    # cache=False keeps the replicas' coherency layers out of the data
    # path, so the failure-injection step below really exercises the
    # disks (with caching on, the demo read would be a cache hit).
    sfs_a = create_sfs(node, device_a, name="sfs-a", cache=False)
    sfs_b = create_sfs(node, device_b, name="sfs-b", cache=False)

    # mirrorfs needs both replicas; build_stack wires the first, we add
    # the second before layering cryptfs on top.
    mirror, = build_stack(node, sfs_a.top, [LayerSpec("mirrorfs")])
    mirror.stack_on(sfs_b.top)
    cryptfs, = build_stack(
        node, mirror, [LayerSpec("cryptfs", {"key": b"home-dir-key"})],
        export_as="home",
    )
    print(describe_stack(cryptfs))

    user = world.create_user_domain(node)
    secret = b"my diary: the simulation is watching me type. " * 40
    with user.activate():
        f = cryptfs.create_file("diary.txt")
        f.write(0, secret)
        f.sync()
        cryptfs.sync_fs()

        # Plaintext comes back through the stack...
        print("roundtrip ok:", cryptfs.resolve("diary.txt").read(0, 9) == secret[:9])

        # ...but both replicas hold ciphertext, and identical ciphertext.
        raw_a = sfs_a.top.resolve("diary.txt").read(0, len(secret))
        raw_b = sfs_b.top.resolve("diary.txt").read(0, len(secret))
        print("replica A is ciphertext:", raw_a[:9] != secret[:9])
        print("replicas identical:", raw_a == raw_b)
        print("mirror scrub:", mirror.scrub("diary.txt") or "clean")

    # --- failure injection: primary disk goes bad ---------------------------------
    for block in range(device_a.num_blocks):
        device_a.inject_bad_block(block, "head crash")
    with user.activate():
        # Read through the mirror itself (the replicas are uncached, so
        # this genuinely drives the failed disk and falls over).
        ciphertext = mirror.resolve("diary.txt").read(0, len(secret))
        from repro.fs.cryptfs import xor_block
        recovered = xor_block(ciphertext[:9], b"home-dir-key", 0)
        print("read after primary disk failure:", recovered == secret[:9],
              f"(failovers: {world.counters.get('mirrorfs.failover')})")

    device_a.clear_bad_blocks()
    print(f"virtual time: {world.clock.now_us / 1000:.1f} ms")


if __name__ == "__main__":
    main()
