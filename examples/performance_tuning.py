#!/usr/bin/env python3
"""Performance tuning: read-ahead, memory pressure, and protocol choice.

Exercises the tunables the paper's sec. 8 sketches as future work, all
implemented here:

* read-ahead/clustering through ranged page-ins (min/max sizes);
* a VMM physical-memory bound with clean-first reclamation;
* the pluggable coherency protocol (per-block vs whole-file).

Run:  python examples/performance_tuning.py
"""

from repro import AccessRights, World
from repro.fs import create_sfs
from repro.storage import BlockDevice
from repro.types import PAGE_SIZE

FILE_PAGES = 64


def build(readahead: int = 0):
    world = World()
    node = world.create_node("alpha")
    device = BlockDevice(node.nucleus, "sd0", 16384)
    stack = create_sfs(node, device)
    stack.coherency_layer.readahead_pages = readahead
    user = world.create_user_domain(node)
    with user.activate():
        f = stack.top.create_file("scan.dat")
        f.write(0, b"d" * (FILE_PAGES * PAGE_SIZE))
        f.sync()
    # Drop the warm cache so the scan below is cold.
    state = next(iter(stack.coherency_layer._states.values()))
    state.store.clear()
    state.last_fault_index = None
    return world, node, stack, user


def main() -> None:
    # ---- read-ahead sweep -----------------------------------------------------
    print(f"cold sequential scan of a {FILE_PAGES}-page file:")
    for window in (0, 4, 16):
        world, node, stack, user = build(readahead=window)
        device = stack.disk_layer.device
        reads_before = device.reads
        with user.activate():
            f = stack.top.resolve("scan.dat")
            start = world.clock.now_us
            for page in range(FILE_PAGES):
                f.read(page * PAGE_SIZE, PAGE_SIZE)
            elapsed_ms = (world.clock.now_us - start) / 1000
        label = f"window {window}" if window else "no read-ahead"
        print(f"  {label:14} {elapsed_ms:8.1f} ms, "
              f"{device.reads - reads_before} disk transfers")

    # ---- memory pressure -------------------------------------------------------
    world, node, stack, user = build()
    node.vmm.capacity_pages = 8
    with user.activate():
        f = stack.top.resolve("scan.dat")
        mapping = node.vmm.create_address_space("app").map(
            f, AccessRights.READ_WRITE
        )
        for page in range(FILE_PAGES):
            mapping.write(page * PAGE_SIZE, bytes([page % 250 + 1]) * 64)
        ok = all(
            mapping.read(page * PAGE_SIZE, 1) == bytes([page % 250 + 1])
            for page in range(FILE_PAGES)
        )
    print(f"\nmemory pressure: {FILE_PAGES} dirty pages through an "
          f"8-page VMM: data intact = {ok}, "
          f"evictions = {world.counters.get('vmm.evicted')}, "
          f"resident = {node.vmm.resident_pages()} pages")

    # ---- protocol choice --------------------------------------------------------
    from repro.fs.coherency import CoherencyLayer
    from repro.fs.disk_layer import DiskLayer
    from repro.ipc.domain import Credentials

    print("\nfalse sharing (two mappings writing different blocks):")
    for protocol in ("per_block", "whole_file"):
        world = World()
        node = world.create_node("n")
        disk = DiskLayer(
            node.create_domain("disk"), BlockDevice(node.nucleus, "d", 8192),
            format_device=True,
        )
        coherency = CoherencyLayer(
            node.create_domain("coh", Credentials("c", True)),
            protocol=protocol,
        )
        coherency.stack_on(disk)
        user = world.create_user_domain(node)
        with user.activate():
            f = coherency.create_file("hot.bin")
            f.write(0, bytes(8 * PAGE_SIZE))
            m1 = node.vmm.create_address_space("a").map(
                coherency.resolve("hot.bin"), AccessRights.READ_WRITE
            )
            start = world.clock.now_us
            for i in range(16):
                m1.write(0, bytes([i + 1]) * 32)
                f.write(4 * PAGE_SIZE, bytes([i + 101]) * 32)
            elapsed_ms = (world.clock.now_us - start) / 1000
        flushes = world.counters.get("vmm.flush_back")
        print(f"  {protocol:11} {elapsed_ms:7.2f} ms, {flushes} flush-backs")


if __name__ == "__main__":
    main()
