"""Compound remote invocation on a path-heavy remote workload.

The scenario the paper's sec. 6.4 worries about: a client on one machine
repeatedly opening and stat-ing files served by a DFS-over-SFS stack on
another.  Uncompounded, every open is a chain of per-component and
per-step round trips.  The 2x2 ablation measures what each remedy buys:

* ``namecache`` — the client-side name cache (LRU + negative entries +
  prefix sharing; with compound also ``one_hop`` server-side walks);
* ``compound`` — intent opens (lookup + access check + attribute fetch
  in one invocation) batched with :class:`CompoundInvocation`, one
  network message per batch.

Both knobs default off in the library; cells here turn them on
explicitly, so the off/off cell is the existing calibrated behaviour.

Also the emitter of ``BENCH_ipc.json`` — network messages,
client->server bytes and elapsed virtual time of the four cells; the
``baseline`` cell is both knobs off, so its numbers double as a
calibration check for the uncompounded path.

Usage (from the repo root)::

    PYTHONPATH=src:. python benchmarks/bench_ipc_compound.py [--smoke]
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import pytest

from benchmarks.emit_common import emit, ensure_repo_on_path

ensure_repo_on_path()

from benchmarks.conftest import print_banner
from repro.bench.harness import TableFormatter
from repro.fs.dfs import export_dfs, mount_remote
from repro.fs.sfs import create_sfs
from repro.ipc.compound import CompoundInvocation
from repro.naming.cache import NameCache
from repro.storage.block_device import BlockDevice
from repro.types import AccessRights
from repro.world import World

NUM_FILES = 8
ROUNDS = 4
CELLS = [
    ("baseline", False, False),
    ("namecache", True, False),
    ("compound", False, True),
    ("namecache+compound", True, True),
]


def _setup(compound: bool):
    world = World()
    server = world.create_node("server")
    client = world.create_node("client")
    device = BlockDevice(server.nucleus, "sd0", 8192)
    sfs = create_sfs(server, device)
    dfs = export_dfs(server, sfs.top, compound=compound)
    mount_remote(client, server, "dfs")
    su = world.create_user_domain(server, "su")
    cu = world.create_user_domain(client, "cu")
    with su.activate():
        src = dfs.create_dir("proj").create_dir("src")
        for i in range(NUM_FILES):
            src.create_file(f"f{i}.c").write(0, b"int main;" * (i + 1))
    return world, server, client, dfs, cu


def _run_cell(use_cache: bool, use_compound: bool) -> dict:
    """ROUNDS passes of: look at the source directory, then open+stat
    every file in it.  Returns message/byte/time deltas for the client's
    side of the workload, plus the observed file sizes (for checking the
    cells agree on the data)."""
    world, server, client, dfs, cu = _setup(use_compound)
    cache = NameCache(world, one_hop=use_compound) if use_cache else None
    sizes = []
    m0, b0, t0 = (
        world.network.messages,
        world.network.bytes_count(client, server),
        world.clock.now_us,
    )
    with cu.activate():
        for _ in range(ROUNDS):
            if cache is not None:
                directory = cache.resolve(dfs, "proj/src")
            else:
                directory = dfs.resolve("proj/src")
            if use_compound:
                batch = CompoundInvocation(world)
                for i in range(NUM_FILES):
                    batch.add(directory.open_intent, f"f{i}.c")
                sizes.append(
                    [r.attributes.size for r in batch.commit().values()]
                )
            else:
                round_sizes = []
                for i in range(NUM_FILES):
                    if cache is not None:
                        f = cache.resolve(dfs, f"proj/src/f{i}.c")
                    else:
                        f = dfs.resolve(f"proj/src/f{i}.c")
                    f.check_access(AccessRights.READ_ONLY)
                    round_sizes.append(f.get_attributes().size)
                sizes.append(round_sizes)
    return {
        "messages": world.network.messages - m0,
        "client_to_server_bytes": world.network.bytes_count(client, server)
        - b0,
        "elapsed_ms": round((world.clock.now_us - t0) / 1000, 3),
        "opens": ROUNDS * NUM_FILES,
        "sizes": sizes,
    }


@pytest.fixture(scope="module")
def cells():
    rows = {name: _run_cell(nc, co) for name, nc, co in CELLS}
    table = TableFormatter(
        f"Remote open+stat x{ROUNDS * NUM_FILES} (messages / ms)",
        ["network msgs", "elapsed ms"],
    )
    for name, row in rows.items():
        table.add_row(name, [row["messages"], row["elapsed_ms"]])
    print_banner("Compound invocation ablation", table.render())
    return rows


class TestCompoundAblation:
    def test_compound_cuts_messages_at_least_40pct(self, cells):
        """The ISSUE's acceptance bar: >= 40% fewer network messages
        with the compound knob on, same workload."""
        baseline = cells["baseline"]["messages"]
        compound = cells["compound"]["messages"]
        assert compound <= baseline * 0.6

    def test_both_knobs_strictly_best(self, cells):
        both = cells["namecache+compound"]["messages"]
        assert both <= cells["compound"]["messages"]
        assert both <= cells["namecache"]["messages"]
        assert both < cells["baseline"]["messages"]

    def test_namecache_alone_helps_repeat_opens(self, cells):
        assert cells["namecache"]["messages"] < cells["baseline"]["messages"]

    def test_cells_agree_on_attributes(self, cells):
        expected = cells["baseline"]["sizes"]
        for name, row in cells.items():
            assert row["sizes"] == expected, name

    def test_compound_saves_virtual_time_too(self, cells):
        assert (
            cells["namecache+compound"]["elapsed_ms"]
            < cells["baseline"]["elapsed_ms"]
        )


def test_bench_compound_open(benchmark):
    world, server, client, dfs, cu = _setup(True)
    def open_all():
        batch = CompoundInvocation(world)
        for i in range(NUM_FILES):
            batch.add(dfs.open_intent, f"proj/src/f{i}.c")
        return batch.commit()
    with cu.activate():
        benchmark(open_all)


def build_record() -> dict:
    cells = {}
    for name, use_cache, use_compound in CELLS:
        row = _run_cell(use_cache, use_compound)
        row.pop("sizes")  # correctness detail, not a benchmark number
        cells[name] = row
    return {
        "workload": {
            "description": "remote DFS-over-SFS open+stat by path",
            "files": NUM_FILES,
            "rounds": ROUNDS,
        },
        "cells": cells,
    }


def summarize(record: dict) -> str:
    baseline = record["cells"]["baseline"]["messages"]
    compound = record["cells"]["compound"]["messages"]
    reduction = 1 - compound / baseline
    return (
        f"compound message reduction: {reduction:.1%} "
        f"({baseline} -> {compound} messages)"
    )


def main(argv=None) -> int:
    return emit("BENCH_ipc.json", build_record, summarize, argv)


if __name__ == "__main__":
    sys.exit(main())
