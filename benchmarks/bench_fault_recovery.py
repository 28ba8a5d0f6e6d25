"""Availability and recovery latency under the reference fault schedule.

A client on one machine runs a 100-operation remote workload (resolve by
path, then read or write) against a DFS-over-SFS stack on another, while
the fault plane replays the ISSUE's reference schedule: **two server
crashes and one 1.5 ms network partition**.  The two cells measure what
the fault-tolerance knobs buy:

* ``knobs_off`` — the library defaults: no retry policy, no name
  cache.  Every operation that lands in a fault window fails.
* ``knobs_on`` — ``world.enable_retries`` (capped exponential backoff
  that carries the caller across the window), DFS crash recovery
  (epoch-bump re-registration), and a ``NameCache``.

The acceptance bar asserted by ``tests/test_fault_plane.py``: knobs-on
completes 100% of operations with zero user-visible errors; knobs-off
fails at least 20%.

Everything is virtual-time deterministic: the same schedule, the same
failures, the same record bytes on every run.

Usage (from the repo root)::

    PYTHONPATH=src:. python benchmarks/bench_fault_recovery.py [--smoke]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from benchmarks.emit_common import emit, ensure_repo_on_path

ensure_repo_on_path()

from repro.errors import SpringError
from repro.fs.dfs import export_dfs, mount_remote
from repro.fs.sfs import create_sfs
from repro.ipc.retry import RetryPolicy
from repro.naming.cache import NameCache
from repro.sim.faults import FaultPlan
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights
from repro.world import World

OPS = 100
NUM_FILES = 8
#: Per-operation client think time (request pacing): what spreads the
#: workload over enough virtual time for the schedule to land mid-run.
THINK_US = 60.0
#: Operation index at which a binding on the resolution path changes,
#: invalidating the client's cached entries.
INVALIDATE_AT = 45

#: The reference schedule, as offsets from the workload's first op
#: (virtual microseconds).  A successful op spans ~6ms of virtual time
#: (network round trips + server work), while an op that hits a dead
#: link fails fast, burning only its think time plus a few local
#: charges — so during an outage the clock creeps at ~65us per failed
#: op, and a 1.5ms partition wipes out a sizeable run of operations.
#: Offsets are placed from the observed timelines of *both* cells
#: (knobs-on runs ~2x faster thanks to the name cache), so every event
#: lands while each cell's workload is still in flight.
CRASH1_OFFSET = 30_000.0
CRASH1_OUTAGE = 3_500.0
PARTITION_OFFSET = 150_000.0
PARTITION_OUTAGE = 1_500.0
CRASH2_OFFSET = 240_000.0
CRASH2_OUTAGE = 3_500.0

#: Knobs-on retry policy: worst-case total backoff (~8.4ms) comfortably
#: covers the longest fault window (1.5ms), so no op exhausts retries.
POLICY = RetryPolicy(
    max_attempts=10,
    base_backoff_us=200.0,
    backoff_factor=2.0,
    max_backoff_us=1_000.0,
    timeout_us=20_000.0,
)


def reference_plan(base_us: float = 0.0) -> FaultPlan:
    """Two server crashes + one 1.5ms partition (the ISSUE schedule),
    anchored at ``base_us`` (the workload's start time)."""
    plan = FaultPlan(seed=7)
    crash1 = base_us + CRASH1_OFFSET
    plan.crash("server", at_us=crash1, recover_at_us=crash1 + CRASH1_OUTAGE)
    cut = base_us + PARTITION_OFFSET
    plan.partition(
        "server", "client", at_us=cut, heal_at_us=cut + PARTITION_OUTAGE
    )
    crash2 = base_us + CRASH2_OFFSET
    plan.crash("server", at_us=crash2, recover_at_us=crash2 + CRASH2_OUTAGE)
    return plan


def _setup(knobs_on: bool):
    world = World()
    server = world.create_node("server")
    client = world.create_node("client")
    device = BlockDevice(server.nucleus, "sd0", 8192)
    sfs = create_sfs(server, device)
    dfs = export_dfs(server, sfs.top)
    mount_remote(client, server, "dfs")
    su = world.create_user_domain(server, "su")
    cu = world.create_user_domain(client, "cu")
    with su.activate():
        proj = dfs.create_dir("proj")
        for i in range(NUM_FILES):
            proj.create_file(f"f{i}.dat").write(0, bytes([65 + i]) * PAGE_SIZE)
    cache = None
    if knobs_on:
        world.enable_retries(POLICY)
        cache = NameCache(world)
    # A client VMM mapping with a dirty page: the per-client holder
    # state the server loses on crash and must re-register to recall.
    with cu.activate():
        f0 = client.fs_context.resolve("dfs@server/proj/f0.dat")
        mapping = client.vmm.create_address_space("c").map(
            f0, AccessRights.READ_WRITE
        )
        mapping.write(0, b"client-dirty")
    return world, server, client, cache, cu


def _run_cell(knobs_on: bool) -> dict:
    world, server, client, cache, cu = _setup(knobs_on)
    world.install_fault_plan(reference_plan(base_us=world.clock.now_us))
    counters0 = world.counters.snapshot()
    messages0 = world.network.messages
    start_us = world.clock.now_us
    completed = failed = 0
    with cu.activate():
        for i in range(OPS):
            world.clock.advance(THINK_US, "client_think")
            if i == INVALIDATE_AT:
                # A binding on the resolution path changes: cached
                # entries are invalidated.
                client.fs_context.bind(f"scratch{i}", object())
            path = f"dfs@server/proj/f{i % NUM_FILES}.dat"
            try:
                if cache is not None:
                    handle = cache.resolve(client.fs_context, path)
                else:
                    handle = client.fs_context.resolve(path)
                if i % 3 == 2:
                    handle.write(0, b"w" * 128)
                else:
                    handle.read(0, 128)
                completed += 1
            except SpringError:
                failed += 1
    delta = world.counters.delta_since(counters0)
    return {
        "completed": completed,
        "failed": failed,
        "availability_pct": round(100.0 * completed / OPS, 1),
        "elapsed_ms": round((world.clock.now_us - start_us) / 1000, 3),
        "recovery_backoff_ms": round(
            world.clock.charged("retry_backoff") / 1000, 3
        ),
        "messages": world.network.messages - messages0,
        "retries": delta.get("invoke.retries", 0),
        "dfs_recoveries": delta.get("dfs.recoveries", 0),
        "stale_serves": delta.get("namecache.stale_serves", 0),
        "faults_applied": {
            "crashes": delta.get("faults.crashes", 0),
            "recoveries": delta.get("faults.recoveries", 0),
            "partitions": delta.get("faults.partitions", 0),
            "heals": delta.get("faults.heals", 0),
        },
    }


def build_record() -> dict:
    return {
        "workload": {
            "description": (
                "remote DFS-over-SFS resolve + read/write under the "
                "reference fault schedule"
            ),
            "ops": OPS,
            "files": NUM_FILES,
            "think_us": THINK_US,
        },
        "schedule": {
            "crashes": [
                {"offset_us": CRASH1_OFFSET, "outage_us": CRASH1_OUTAGE},
                {"offset_us": CRASH2_OFFSET, "outage_us": CRASH2_OUTAGE},
            ],
            "partitions": [
                {"offset_us": PARTITION_OFFSET, "outage_us": PARTITION_OUTAGE}
            ],
        },
        "cells": {
            "knobs_off": _run_cell(False),
            "knobs_on": _run_cell(True),
        },
    }


def summarize(record: dict) -> str:
    off = record["cells"]["knobs_off"]
    on = record["cells"]["knobs_on"]
    return (
        f"availability: {off['availability_pct']}% -> "
        f"{on['availability_pct']}% "
        f"(recovery backoff {on['recovery_backoff_ms']}ms, "
        f"{on['retries']} retries, {on['dfs_recoveries']} DFS recoveries)"
    )


def main(argv=None) -> int:
    return emit("BENCH_faults.json", build_record, summarize, argv)


if __name__ == "__main__":
    sys.exit(main())
