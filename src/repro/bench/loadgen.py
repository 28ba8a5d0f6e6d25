"""Concurrent load generation: offered-load sweeps over the scheduler.

The paper's tables are single-client relative costs; the ROADMAP's
north star is behaviour under *heavy traffic*.  This module is the
bridge: it builds the three reference configurations — monolithic SFS,
a 3-deep stacked SFS (NULLFS over coherency over disk, each layer in
its own domain), and DFS-over-SFS across two machines — and drives each
with N simulated clients running as coroutines on the discrete-event
scheduler (:mod:`repro.sim.scheduler`), with finite-capacity service
queues installed on the shared disk and (for DFS) the server node.

Every client loops: think (seeded-exponential pacing) → resolve one of
the shared files → uncached 4 KB read.  Uncached (``cache=False``)
keeps the per-request disk demand constant, so the sweep produces the
classic saturation curve: throughput climbs linearly with offered load
until the disk (the shared bottleneck in all three configurations)
reaches 100% utilization, then plateaus while queueing delay — and with
it p99 latency — grows without bound.  This is the same shape the
Linux RAID study (PAPERS.md) reports as throughput-vs-offered-load, and
the queue-at-the-storage-target structure is Lustre's.

Everything is virtual-time deterministic: same seed, same curves, to
the last microsecond.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.fs.dfs import export_dfs, mount_remote
from repro.fs.nullfs import NullFs
from repro.fs.sfs import create_sfs
from repro.fs.stack import layer_busy_breakdown
from repro.ipc.domain import Credentials
from repro.sim.scheduler import request, think
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE
from repro.world import World

#: The three reference configurations of the load sweep.
CONFIGS = ("monolithic", "stacked", "dfs")

#: Shared files per configuration (clients pick uniformly).
FILES = 8
#: Requests per client per cell.
REQUESTS = 2
#: Mean think time between a client's requests (exponential, seeded).
THINK_MEAN_US = 500_000.0
#: Server-slot count for the DFS server node.
DFS_SERVER_SLOTS = 4


class LoadConfig:
    """One built configuration: a world plus an ``op(name)`` factory the
    clients call, and the stack top for busy-breakdown reporting."""

    def __init__(self, world: World, names: List[str],
                 make_op: Callable[[str], Callable[[], object]],
                 top) -> None:
        self.world = world
        self.names = names
        self.make_op = make_op
        self.top = top


def _populate(top, count: int) -> List[str]:
    names = []
    for i in range(count):
        top.create_file(f"f{i}.dat").write(0, bytes([65 + i % 26]) * PAGE_SIZE)
        names.append(f"f{i}.dat")
    return names


def build_config(name: str) -> LoadConfig:
    """Build one of :data:`CONFIGS` with its service queues installed.
    The scheduler comes first, so layer busy time counts from the
    populate on."""
    world = World()
    world.scheduler()
    if name == "dfs":
        server = world.create_node("server")
        client_node = world.create_node("client")
        device = BlockDevice(server.nucleus, "sd0", 16384)
        stack = create_sfs(server, device, cache=False)
        dfs = export_dfs(server, stack.top)
        mount_remote(client_node, server, "dfs")
        server.install_server_queue(DFS_SERVER_SLOTS)
        su = world.create_user_domain(server, "su")
        user = world.create_user_domain(client_node, "cu")
        with su.activate():
            names = _populate(dfs, FILES)

        def make_op(fname: str) -> Callable[[], object]:
            path = f"dfs@server/{fname}"

            def op() -> object:
                with user.activate():
                    handle = client_node.fs_context.resolve(path)
                    return handle.read(0, PAGE_SIZE)

            return op

        top = dfs
    elif name in ("monolithic", "stacked"):
        node = world.create_node("node")
        device = BlockDevice(node.nucleus, "sd0", 16384)
        placement = "not_stacked" if name == "monolithic" else "two_domains"
        stack = create_sfs(node, device, placement=placement, cache=False)
        top = stack.top
        if name == "stacked":
            # Third layer in its own domain: NULLFS over coherency over
            # disk — the paper's interposition case, now under load.
            domain = node.create_domain("nullfs", Credentials("nullfs", True))
            null = NullFs(domain)
            null.stack_on(top)
            top = null
        user = world.create_user_domain(node)
        with user.activate():
            names = _populate(top, FILES)

        def make_op(fname: str) -> Callable[[], object]:
            def op() -> object:
                with user.activate():
                    handle = top.resolve(fname)
                    return handle.read(0, PAGE_SIZE)

            return op
    else:
        raise ValueError(f"unknown load config {name!r}; expected {CONFIGS}")
    device.install_queue(1)
    return LoadConfig(world, names, make_op, top)


def _client(config: LoadConfig, rng: random.Random, latencies: List[float]):
    """One simulated client: a coroutine for the scheduler."""
    world = config.world
    names = config.names
    for _ in range(REQUESTS):
        yield think(rng.expovariate(1.0 / THINK_MEAN_US))
        issued_us = world.clock.now_us
        yield request(config.make_op(names[rng.randrange(len(names))]))
        latencies.append(world.clock.now_us - issued_us)


def _percentile(ordered: List[float], fraction: float) -> float:
    index = min(len(ordered) - 1, int(len(ordered) * fraction))
    return ordered[index]


def run_cell(config_name: str, clients: int, seed: int = 11) -> Dict[str, object]:
    """One sweep cell: ``clients`` concurrent clients against a fresh
    build of ``config_name``; returns throughput/latency/queueing
    metrics in virtual time."""
    config = build_config(config_name)
    world = config.world
    scheduler = world.scheduler()
    latencies: List[float] = []
    start_us = world.clock.now_us
    for cid in range(clients):
        rng = random.Random(seed * 1_000_003 + cid)
        scheduler.spawn(_client(config, rng, latencies), name=f"client{cid}")
    scheduler.run()
    makespan_us = world.clock.now_us - start_us
    ordered = sorted(latencies)
    clock = world.clock
    busy = {
        fs_type: round(busy_us / 1000, 3)
        for fs_type, _, busy_us in layer_busy_breakdown(config.top)
        if busy_us > 0
    }
    return {
        "clients": clients,
        "completed": len(ordered),
        "throughput_rps": round(len(ordered) / (makespan_us / 1e6), 2),
        "p50_ms": round(_percentile(ordered, 0.50) / 1000, 3),
        "p99_ms": round(_percentile(ordered, 0.99) / 1000, 3),
        "makespan_ms": round(makespan_us / 1000, 3),
        "disk_queue_wait_ms": round(clock.charged("disk_queue_wait") / 1000, 3),
        "server_queue_wait_ms": round(
            clock.charged("server_queue_wait") / 1000, 3
        ),
        "layer_busy_ms": busy,
    }


def sweep(config_name: str, loads: List[int], seed: int = 11) -> Dict[str, object]:
    """Sweep offered load for one configuration and locate the
    saturation knee: the smallest load whose throughput reaches 95% of
    the sweep's peak (beyond it, added clients only add queueing
    delay)."""
    cells = [run_cell(config_name, clients, seed) for clients in loads]
    peak = max(cell["throughput_rps"] for cell in cells)
    knee_clients: Optional[int] = None
    for cell in cells:
        if cell["throughput_rps"] >= 0.95 * peak:
            knee_clients = cell["clients"]
            break
    return {
        "cells": cells,
        "peak_throughput_rps": peak,
        "knee_clients": knee_clients,
        "p99_growth_x": round(
            cells[-1]["p99_ms"] / cells[0]["p99_ms"], 1
        ) if cells and cells[0]["p99_ms"] else 0.0,
    }


def render_sweep(config_name: str, result: Dict[str, object]) -> str:
    """Fixed-width table of one configuration's saturation curve, with
    the knee row marked."""
    lines = [
        f"{config_name}: peak {result['peak_throughput_rps']} req/s, "
        f"knee at {result['knee_clients']} clients, "
        f"p99 grew {result['p99_growth_x']}x across the sweep",
        f"{'clients':>8}  {'req/s':>8}  {'p50 ms':>10}  {'p99 ms':>10}  "
        f"{'disk wait ms':>13}",
    ]
    for cell in result["cells"]:
        marker = " <- knee" if cell["clients"] == result["knee_clients"] else ""
        lines.append(
            f"{cell['clients']:>8}  {cell['throughput_rps']:>8}  "
            f"{cell['p50_ms']:>10}  {cell['p99_ms']:>10}  "
            f"{cell['disk_queue_wait_ms']:>13}{marker}"
        )
    return "\n".join(lines)
