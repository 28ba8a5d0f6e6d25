#!/usr/bin/env python3
"""COMPFS: stack a compression layer over SFS (paper sec. 4.2.1).

Demonstrates both of the paper's design points:

* case 1 (Figure 5) — no C3-P3 channel: a direct write to the
  underlying file leaves COMPFS's plaintext cache stale;
* case 2 (Figure 6) — COMPFS acts as a cache manager for the
  underlying file: all views stay coherent.

Run:  python examples/compression_stack.py
"""

from repro import AccessRights, World
from repro.bench.workloads import compressible_bytes
from repro.fs import CompFs, create_sfs, describe_stack
from repro.fs.compfs import write_image
from repro.ipc.domain import Credentials
from repro.storage import BlockDevice
from repro.types import PAGE_SIZE


def build(world: World, node, coherent: bool, tag: str):
    device = BlockDevice(node.nucleus, f"sd-{tag}", 8192)
    sfs = create_sfs(node, device, name=f"sfs-{tag}")
    domain = node.create_domain(f"compfs-{tag}", Credentials("compfs", True))
    compfs = CompFs(domain, coherent=coherent)
    compfs.stack_on(sfs.top)
    node.fs_context.bind(f"compfs-{tag}", compfs)
    return sfs, compfs


def main() -> None:
    world = World()
    node = world.create_node("alpha")
    user = world.create_user_domain(node)

    # ----- space savings (why COMPFS exists) ---------------------------------
    sfs, compfs = build(world, node, coherent=True, tag="demo")
    print(describe_stack(compfs))
    text = compressible_bytes(256 * 1024, seed=7)
    with user.activate():
        f = compfs.create_file("corpus.txt")
        # Appended a page at a time: each write encodes the one cluster
        # it lands in, not the file.
        for offset in range(0, len(text), PAGE_SIZE):
            f.write(offset, text[offset : offset + PAGE_SIZE])
        f.sync()
        report = compfs.space_report(f)
    saved = 1 - report["stored_bytes"] / report["plaintext_bytes"]
    print(
        f"stored {report['plaintext_bytes']} plaintext bytes in "
        f"{report['stored_bytes']} on disk ({saved:.0%} saved)"
    )
    with user.activate():
        f.write(5 * PAGE_SIZE, compressible_bytes(PAGE_SIZE, seed=8))
        # A store through a mapping, across the boundary of pages 7 and
        # 8, goes back on sync: its cluster is encoded again.
        mapping = node.vmm.create_address_space("corpus").map(
            f, AccessRights.READ_WRITE
        )
        mapping.write(8 * PAGE_SIZE - 6, b"mapped store")
        mapping.cache.sync()
        f.sync()
        rewritten = compfs.space_report(f)["stored_bytes"]
        f.set_length(100_000)  # into the middle of a cluster
        f.sync()
        truncated = compfs.space_report(f)["stored_bytes"]
    # A truncate keeps the stream of the cluster it cuts until that
    # cluster is written again; the clusters past it go.
    print(f"page 5 rewritten, pages 7-8 stored through a mapping: "
          f"{rewritten} bytes stored; truncated to 100000 bytes: {truncated}")

    # A second COMPFS over the same SFS starts cold: each cluster comes
    # up in two page-ins, its slot's first page (the header says how
    # long the stream is) and the rest of its stream.
    cold = CompFs(node.create_domain("compfs-cold", Credentials("compfs", True)))
    cold.stack_on(sfs.top)
    with user.activate():
        expected = f.read(0, 100_000)
        before = world.counters.get("coherency.page_in")
        same = cold.resolve("corpus.txt").read(0, 100_000) == expected
    print(f"read cold through a second COMPFS: "
          f"{'the same' if same else 'DIFFERENT'} 100000 bytes, "
          f"{world.counters.get('coherency.page_in') - before} page-ins below")

    # Anyone can open the underlying SFS file and see compressed bytes —
    # "A client opening file_SFS can access this file as usual, reading
    # and writing its compressed data."
    with user.activate():
        raw = sfs.top.resolve("corpus.txt")
        print("underlying file magic:", raw.read(0, 4))

    # ----- case 1 vs case 2 coherence ---------------------------------------------
    for coherent in (False, True):
        tag = "case2" if coherent else "case1"
        _, layer = build(world, node, coherent=coherent, tag=tag)
        with user.activate():
            f = layer.create_file("shared.txt")
            f.write(0, b"first version of the data, written through COMPFS")
            # A mapping of file_COMP, written through and written back.
            mapping = node.vmm.create_address_space(tag).map(
                f, AccessRights.READ_WRITE
            )
            mapping.write(0, b"F")
            mapping.cache.sync()
            f.sync()

            # A direct client rewrites the underlying compressed image.
            new_plain = b"second version, written directly to file_SFS"
            write_image(layer.under.resolve("shared.txt"), new_plain)

            seen = layer.resolve("shared.txt").read(0, len(new_plain))
            mapped = mapping.read_copy(0, len(new_plain))
        views = [
            "coherent" if view == new_plain else "STALE" for view in (seen, mapped)
        ]
        print(f"{tag} ({'with' if coherent else 'no'} C3-P3 channel): "
              f"COMPFS view is {views[0]}, its mapping is {views[1]}")


if __name__ == "__main__":
    main()
