"""The benchmark's server process.

``python -m benchmarks.e2e.server --image PATH ...`` builds one World
over a real image file through the public API only
(``World.create_image``/``open_image`` -> ``create_sfs`` or
``export_dfs``+``mount_remote`` -> ``Posix`` -> ``FileService`` ->
``node.expose``/``node.serve``) and serves it on loopback TCP until the
client calls ``control.shutdown()`` or kills the process.

It prints exactly one line on stdout when it is ready::

    E2E-SERVER READY port=43210

``control`` is the benchmark's own export: everything the client needs
to read from inside the server process (virtual clock, counters, device
transfer counts, spans, instruction counts, fsck) without touching
``src/``.
"""

from __future__ import annotations

import argparse
import asyncio
from typing import Dict, List, Optional

from repro.fs import create_sfs, export_dfs, mount_remote
from repro.serve import FileService
from repro.unix.posixlike import Posix
from repro.world import World

from benchmarks.e2e.tracing import InstructionCounter, SpanRecorder

READY_PREFIX = "E2E-SERVER READY"
IMAGE_BLOCKS = 8192  # 32 MiB of 4 KiB blocks; every workload stores 8 MiB or less


class BenchControl:
    """Measurement and lifecycle surface of one benchmark server."""

    def __init__(self, world: World, devices: list, volumes: list) -> None:
        self._world = world
        self._devices = devices
        self._volumes = volumes
        self._server = None
        self._spans: Optional[SpanRecorder] = None
        self._instr: Optional[InstructionCounter] = None

    def attach(self, server) -> None:
        self._server = server

    def save(self) -> int:
        """``World.save()``: everything written so far is on the image."""
        return self._world.save()

    def snapshot(self) -> dict:
        """Every deterministic observable at once; the client diffs two."""
        world = self._world
        clock = world.clock
        return {
            "virt_us": clock.now_us,
            "categories": clock.categories(),
            "charges": clock.charge_counts(),
            "counters": world.counters.snapshot(),
            "device_reads": sum(d.reads for d in self._devices),
            "device_writes": sum(d.writes for d in self._devices),
            "resident_pages": sum(
                node.vmm.resident_pages() for node in world.nodes.values()
            ),
        }

    def fsck(self, repair: bool = False) -> List[str]:
        problems: List[str] = []
        for volume in self._volumes:
            problems.extend(volume.fsck(repair=repair))
        return problems

    # --- traced runs ------------------------------------------------------
    def spans_start(self) -> None:
        self._spans = SpanRecorder()
        self._spans.install()

    def spans_stop(self) -> dict:
        recorder, self._spans = self._spans, None
        recorder.uninstall()
        return recorder.columns()

    def instr_start(self) -> None:
        self._instr = InstructionCounter()
        self._instr.start()

    def instr_stop(self) -> Dict[str, int]:
        counter, self._instr = self._instr, None
        counter.stop()
        return counter.by_file()

    def shutdown(self) -> str:
        self._server.request_shutdown()
        return "bye"


def build(image: str, stack: str, placement: str, cache: bool, fresh: bool):
    """Returns ``(node, service, control)`` for the requested stack."""
    world = World()
    if stack == "sfs":
        node = storage = world.create_node("server")
    else:
        # The documented default of repro.serve: a storage node exports
        # its SFS through DFS, a gateway node in the same process mounts
        # it, so every op also crosses the simulated machine boundary.
        storage = world.create_node("storage")
        node = world.create_node("gateway")
    if fresh:
        device = world.create_image(storage.nucleus, image, num_blocks=IMAGE_BLOCKS)
    else:
        device = world.open_image(storage.nucleus, image)
    sfs = create_sfs(
        storage, device, placement=placement, cache=cache, format_device=fresh
    )
    if stack == "sfs":
        root = sfs.top
    else:
        export_dfs(storage, sfs.top)
        mount_remote(node, storage, "dfs")
        root = node.fs_context.resolve("dfs@storage")
    posix = Posix(root, world.create_user_domain(node, "wire-user"))
    control = BenchControl(world, [device], [sfs.volume])
    return node, FileService(posix), control


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--image", required=True)
    parser.add_argument("--stack", choices=("sfs", "dfs"), required=True)
    parser.add_argument("--placement", required=True)
    parser.add_argument("--cache", type=int, choices=(0, 1), required=True)
    parser.add_argument("--fresh", type=int, choices=(0, 1), required=True,
                        help="1: create and format the image; 0: reopen it")
    args = parser.parse_args(argv)

    node, service, control = build(
        args.image, args.stack, args.placement, bool(args.cache),
        bool(args.fresh),
    )
    server = node.serve(host="127.0.0.1", port=0)
    control.attach(server)
    node.expose("fs", service)
    node.expose("control", control)

    async def amain() -> None:
        port = await server.start()
        print(f"{READY_PREFIX} port={port}", flush=True)
        await server.wait_closed()

    asyncio.run(amain())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
