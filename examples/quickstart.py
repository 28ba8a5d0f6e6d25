#!/usr/bin/env python3
"""Quickstart: boot a Spring node, build the stacked SFS, and use it
through both the file interface and the POSIX facade.

Run:  python examples/quickstart.py
"""

from repro import AccessRights, World
from repro.fs import create_sfs, describe_stack
from repro.storage import BlockDevice
from repro.unix import O_CREAT, O_RDWR, Posix


def main() -> None:
    # One simulated machine with a nucleus, VMM, and name service.
    world = World()
    node = world.create_node("alpha")

    # A 32 MB simulated disk, formatted with the UFS-like volume and
    # exported as the two-layer Spring SFS (Figure 10): a coherency
    # layer stacked on a disk layer, each in its own domain.
    device = BlockDevice(node.nucleus, "sd0", num_blocks=8192)
    sfs = create_sfs(node, device, placement="two_domains")
    print("The stack that was just assembled:")
    print(describe_stack(sfs.top))
    print()

    user = world.create_user_domain(node)

    # --- raw Spring file objects --------------------------------------------
    with user.activate():
        f = sfs.top.create_file("notes.txt")
        f.write(0, b"files are memory objects; read/write is one way in\n")

        # The same file, memory mapped — the other way in.  Both go
        # through the same cache, so they are coherent by construction.
        aspace = node.vmm.create_address_space("quickstart")
        mapping = aspace.map(f, AccessRights.READ_WRITE)
        mapping.write(0, b"FILES")
        print("read() sees the mapped write:", f.read(0, 5))

        f.sync()
        sfs.top.sync_fs()

    # --- POSIX facade ------------------------------------------------------------
    posix = Posix(sfs.top, user)
    fd = posix.open("report.txt", O_RDWR | O_CREAT)
    posix.write(fd, b"hello from the POSIX facade\n")
    posix.lseek(fd, 0)
    print("POSIX read:", posix.read(fd, 27))
    print("fstat size:", posix.fstat(fd).size)
    posix.fsync(fd)
    posix.ftruncate(fd, 5)
    posix.lseek(fd, 0)
    print("after ftruncate(5):", posix.read(fd, 27), posix.fstat(fd).size)
    posix.close(fd)
    print("directory:", posix.listdir())

    print(f"\nvirtual time elapsed: {world.clock.now_us / 1000:.2f} ms")
    print(f"disk time: {world.clock.charged('disk') / 1000:.2f} ms")
    print(f"cross-domain calls: {world.counters.get('invoke.cross_domain')}")


if __name__ == "__main__":
    main()
