"""Host a Spring file-system stack for out-of-process TCP clients.

``python -m repro.serve`` turns one simulated installation into a real
server process: it builds a World, assembles an SFS (or a two-node
DFS-backed) stack, wraps a POSIX-style facade in a wire-safe
:class:`FileService`, and serves it over the
:class:`~repro.ipc.transport.SocketServer` framing until a client calls
``control.shutdown()`` (or the process is signalled).

On startup it prints a single machine-readable line to stdout::

    REPRO-SERVE READY host=127.0.0.1 port=43210 stack=dfs

which is how ``examples/two_process_dfs.py`` (and the CI job wrapping
it) learns the OS-assigned port.  Everything the service returns is
deterministic — file bytes, attribute snapshots stamped in *virtual*
time, simulated message counts — so a scripted client produces
byte-identical transcripts run after run, even though the transport
underneath is a real TCP connection.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
from typing import List, Optional

from repro.fs.attributes import FileAttributes
from repro.unix.posixlike import (
    O_CREAT,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
    Posix,
)
from repro.world import World

STACKS = ("sfs", "dfs")


class FileService:
    """Wire-safe, path-and-fd file API over a :class:`Posix` facade.

    Every operation takes and returns only wire-encodable values (the
    one non-scalar is :class:`~repro.fs.attributes.FileAttributes`,
    which is a registered wire struct), so the whole surface is
    servable and batchable.  ``read_file``/``write_file`` are whole-file
    conveniences that keep remote round trips — and the two-process
    demo — compact.
    """

    #: Ops that are safe to resend if a reply is lost: they either
    #: don't mutate, or overwrite idempotently.  Clients pass these to
    #: RemoteStub so mid-invoke crash retries stay correct.
    IDEMPOTENT_OPS = (
        "stat", "fstat", "pread", "listdir", "read_file", "open_fds",
    )

    def __init__(self, posix: Posix) -> None:
        self._posix = posix

    # --- fd surface -----------------------------------------------------
    def open(self, path: str, flags: int = O_RDONLY) -> int:
        return self._posix.open(path, flags)

    def close(self, fd: int) -> None:
        return self._posix.close(fd)

    def read(self, fd: int, size: int) -> bytes:
        return self._posix.read(fd, size)

    def write(self, fd: int, data: bytes) -> int:
        return self._posix.write(fd, bytes(data))

    def pread(self, fd: int, size: int, offset: int) -> bytes:
        return self._posix.pread(fd, size, offset)

    def pwrite(self, fd: int, data: bytes, offset: int) -> int:
        return self._posix.pwrite(fd, bytes(data), offset)

    def lseek(self, fd: int, offset: int, whence: int = 0) -> int:
        return self._posix.lseek(fd, offset, whence)

    def ftruncate(self, fd: int, length: int) -> None:
        return self._posix.ftruncate(fd, length)

    def fsync(self, fd: int) -> None:
        return self._posix.fsync(fd)

    def fstat(self, fd: int) -> FileAttributes:
        return self._posix.fstat(fd)

    def open_fds(self) -> int:
        return self._posix.open_fds()

    # --- path surface ---------------------------------------------------
    def stat(self, path: str) -> FileAttributes:
        return self._posix.stat(path)

    def mkdir(self, path: str) -> None:
        self._posix.mkdir(path)

    def unlink(self, path: str) -> None:
        self._posix.unlink(path)

    def listdir(self, path: str = "") -> List[str]:
        return sorted(self._posix.listdir(path))

    def rename(self, old: str, new: str) -> None:
        self._posix.rename(old, new)

    def write_file(self, path: str, data: bytes) -> int:
        fd = self._posix.open(path, O_WRONLY | O_CREAT | O_TRUNC)
        try:
            return self._posix.write(fd, bytes(data))
        finally:
            self._posix.close(fd)

    def read_file(self, path: str) -> bytes:
        fd = self._posix.open(path, O_RDONLY)
        try:
            size = self._posix.fstat(fd).size
            return self._posix.pread(fd, size, 0)
        finally:
            self._posix.close(fd)


class Control:
    """Server-side control surface: liveness, telemetry, shutdown."""

    def __init__(self, world: World, server=None) -> None:
        self._world = world
        self._server = server

    def ping(self) -> str:
        return "pong"

    def stats(self) -> dict:
        """Deterministic serving telemetry: what the *simulated* stack
        behind the wire did on this server's behalf."""
        network = self._world.network
        counters = self._world.counters
        return {
            "sim_messages": network.messages,
            "sim_bytes_moved": network.bytes_moved,
            "invoke_network": counters.get("invoke.network"),
            "invoke_cross_domain": counters.get("invoke.cross_domain"),
        }

    def shutdown(self) -> str:
        if self._server is not None:
            self._server.request_shutdown()
        return "bye"


def build_service(stack: str = "sfs", blocks: int = 4096):
    """Build the served world: returns ``(world, node, service)`` where
    ``node`` is the node whose exports will face the wire.

    ``sfs``
        One node, the classic two-domain SFS (coherency on disk layer).

    ``dfs``
        Two simulated nodes: ``storage`` exports its SFS through DFS and
        ``gateway`` mounts it remotely — so every wire op additionally
        crosses the *simulated* machine boundary, a Spring stack behind
        a real one (the Lustre client/OST shape).
    """
    from repro.fs import create_sfs, export_dfs, mount_remote
    from repro.storage import BlockDevice

    if stack not in STACKS:
        raise ValueError(f"unknown stack {stack!r}; expected one of {STACKS}")
    world = World()
    if stack == "sfs":
        node = world.create_node("server")
        device = BlockDevice(node.nucleus, "sd0", blocks)
        sfs = create_sfs(node, device)
        root = sfs.top
    else:
        storage = world.create_node("storage")
        node = world.create_node("gateway")
        device = BlockDevice(storage.nucleus, "sd0", blocks)
        sfs = create_sfs(storage, device)
        export_dfs(storage, sfs.top)
        mount_remote(node, storage, "dfs")
        root = node.fs_context.resolve("dfs@storage")
    posix = Posix(root, world.create_user_domain(node, "wire-user"))
    return world, node, FileService(posix)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: OS-assigned, reported on stdout)",
    )
    parser.add_argument("--stack", choices=STACKS, default="sfs")
    parser.add_argument(
        "--blocks", type=int, default=4096,
        help="size of the backing block device",
    )
    args = parser.parse_args(argv)
    # To stderr (the default stream): stdout carries the READY/DONE lines.
    logging.basicConfig(level=logging.INFO)

    world, node, service = build_service(args.stack, args.blocks)
    server = node.serve(host=args.host, port=args.port)
    node.expose("fs", service)
    node.expose("control", Control(world, server))

    async def amain() -> None:
        port = await server.start()
        print(
            f"REPRO-SERVE READY host={args.host} port={port} "
            f"stack={args.stack}",
            flush=True,
        )
        await server.wait_closed()

    asyncio.run(amain())
    print(
        f"REPRO-SERVE DONE ops={server.ops_served} "
        f"frames={server.frames_in}",
        flush=True,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
