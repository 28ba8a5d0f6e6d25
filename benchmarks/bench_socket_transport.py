"""Simulated vs. real-socket message costs, and batching over the wire.

A cross-node message is charged by ``Network.transfer`` inside one
process and carried by the socket pair of ``repro.ipc.transport``
between two; this benchmark puts numbers on the gap:

* ``simulated`` — what the cost model *charges* for a cross-node
  message (virtual microseconds per ``Network.transfer``, at the small-
  control-message and 4 KB-payload points).  Deterministic.

* ``socket`` — what a real localhost TCP round trip *costs* through the
  length-prefixed wire format: per-message RTT percentiles for the same
  two payload points, measured wall-clock against an in-process
  ``SocketServer``.  Wall numbers are environment-dependent and are
  recorded for trend-watching, not gated.

* ``batching`` — the compound-invocation ablation over real sockets:
  ``OPS`` stat calls issued one frame each vs. the same calls in one
  compound frame.  Frame counts are exact protocol facts (gated); the
  wall-clock speedup is recorded alongside.

The deterministic fields (``check_regression.py`` compares each one
exactly) are the virtual per-message costs and the frame counts.  A
transport change that silently turns one batch into N frames — or a
cost-model change that cheapens simulated messages out from under the
calibration — fails the gate.

Usage (from the repo root)::

    PYTHONPATH=src:. python benchmarks/bench_socket_transport.py [--smoke]
"""

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from benchmarks.emit_common import emit, ensure_repo_on_path

ensure_repo_on_path()

from repro.ipc import CompoundInvocation
from repro.ipc.transport import ServerThread, SocketTransport
from repro.serve import Control, FileService, build_service
from repro.world import World

#: Payload points: a small control message and one page.
SMALL_BYTES = 64
PAGE_BYTES = 4096
#: Round trips per wall-clock sample set.
PINGS = 200
#: Ops in the batching ablation.
OPS = 64


def measure_simulated() -> dict:
    """Virtual-time cost of one cross-node message at both payload
    points — exactly what every remote invocation in the reproduction
    is charged."""
    world = World()
    a = world.create_node("client")
    b = world.create_node("server")
    cells = {}
    for name, nbytes in (("small", SMALL_BYTES), ("page", PAGE_BYTES)):
        start = world.clock.now_us
        for _ in range(PINGS):
            world.network.transfer(a, b, nbytes)
        cells[f"per_message_{name}_us"] = round(
            (world.clock.now_us - start) / PINGS, 3
        )
    cells["messages"] = world.network.messages
    return cells


def _served_file_world():
    world, node, service = build_service("sfs")
    node.expose("fs", service)
    node.expose("control", Control(world))
    server = node.serve()
    thread = ServerThread(server)
    port = thread.start()
    return server, thread, port


def measure_socket() -> dict:
    """Wall-clock RTT through the real wire at both payload points."""
    server, thread, port = _served_file_world()
    client = SocketTransport("127.0.0.1", port)
    try:
        cells = {}
        for name, nbytes in (("small", SMALL_BYTES), ("page", PAGE_BYTES)):
            client.send(None, None, nbytes)  # warm the connection
            samples = []
            for _ in range(PINGS):
                start = time.perf_counter()
                client.send(None, None, nbytes)
                samples.append((time.perf_counter() - start) * 1e6)
            samples.sort()
            cells[f"rtt_{name}_p50_us"] = round(statistics.median(samples), 1)
            cells[f"rtt_{name}_p95_us"] = round(
                samples[int(len(samples) * 0.95)], 1
            )
        return cells
    finally:
        client.close()
        thread.stop()


def measure_batching() -> dict:
    """Compound ablation over real sockets: OPS stats, one frame each
    vs. one compound frame for all of them."""
    server, thread, port = _served_file_world()
    client = SocketTransport("127.0.0.1", port)
    try:
        fs = client.bind("fs", idempotent=FileService.IDEMPOTENT_OPS)
        fs.mkdir("d")
        paths = []
        for index in range(OPS):
            path = f"d/f{index:03d}"
            fs.write_file(path, b"x" * 64)
            paths.append(path)

        frames_before = client.messages
        start = time.perf_counter()
        for path in paths:
            fs.stat(path)
        individual_s = time.perf_counter() - start
        individual_frames = client.messages - frames_before

        frames_before = client.messages
        batch = CompoundInvocation()
        for path in paths:
            batch.add(fs.stat, path)
        start = time.perf_counter()
        result = batch.commit()
        batched_s = time.perf_counter() - start
        batched_frames = client.messages - frames_before
        assert len(result.values()) == OPS

        return {
            "ops": OPS,
            "frames_individual": individual_frames,
            "frames_batched": batched_frames,
            "elapsed_individual_ms": round(individual_s * 1e3, 2),
            "elapsed_batched_ms": round(batched_s * 1e3, 2),
            "wall_speedup": round(individual_s / batched_s, 2)
            if batched_s > 0 else 0.0,
        }
    finally:
        client.close()
        thread.stop()


def build_record() -> dict:
    return {
        "schema": "bench_socket/1",
        "config": {
            "pings": PINGS,
            "ops": OPS,
            "small_bytes": SMALL_BYTES,
            "page_bytes": PAGE_BYTES,
        },
        "cells": {
            "simulated": measure_simulated(),
            "socket": measure_socket(),
            "batching": measure_batching(),
        },
    }


def summarize(record: dict) -> str:
    cells = record["cells"]
    return (
        f"simulated {cells['simulated']['per_message_small_us']}us/msg vs "
        f"socket p50 {cells['socket']['rtt_small_p50_us']}us/msg; "
        f"batching {cells['batching']['frames_individual']} frames -> "
        f"{cells['batching']['frames_batched']} "
        f"({cells['batching']['wall_speedup']}x wall)"
    )


def main(argv=None) -> int:
    return emit("BENCH_socket.json", build_record, summarize, argv)


if __name__ == "__main__":
    sys.exit(main())
