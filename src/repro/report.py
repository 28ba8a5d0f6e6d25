"""Reproduction report generator.

``python -m repro.report`` regenerates every table and figure of the
paper in one run and prints them with the paper-reported values for
side-by-side comparison — the human-readable form of EXPERIMENTS.md —
followed by the per-layer channel telemetry of a 3-deep stack.  The
fault-tolerance drill is the benchmark's:
``benchmarks/bench_fault_recovery.py`` (``--smoke`` to run it without
writing ``BENCH_faults.json``).

Options::

    python -m repro.report              # everything above
    python -m repro.report --tables     # Table 2 and Table 3 only
    python -m repro.report --figures    # Figures 1-10 only
    python -m repro.report --quick      # fewer iterations
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.bench import figures
from repro.bench.table2 import run_table2
from repro.bench.table3 import run_table3

RULE = "=" * 72


def _heading(title: str) -> None:
    print(f"\n{RULE}\n{title}\n{RULE}")


def report_tables(iterations: int, runs: int) -> None:
    _heading("Table 2 — Spring SFS stacking overhead")
    table2 = run_table2(iterations=iterations, runs=runs)
    print(table2.render())
    print(
        "\npaper: open +39% (one domain) / +101% (two domains); cached\n"
        "read/write/stat at 100%; cached 4KB write 0.16 ms; uncached\n"
        "4KB write 13.7 ms (disk-bound)."
    )
    _heading("Table 3 — SunOS 4.1.3 baseline")
    table3 = run_table3(iterations=iterations, runs=runs)
    print(table3.render())
    print('\npaper: "Spring is from 2 to 7 times slower than SunOS."')


def build_layer_breakdown_demo() -> str:
    """Assemble a 3-deep stack (DFS serving binds on coherency on disk),
    drive file and mapped traffic through it, and render the per-layer
    channel-op telemetry the dispatch spine recorded.  Every fault on
    the mapping travels pager-to-pager down all three layers, so each
    one shows its own ``<layer>.<op>`` census.  Shared with the tests."""
    from repro.fs.dfs import DfsLayer
    from repro.fs.sfs import create_sfs
    from repro.fs.stack import describe_stack, render_layer_breakdown
    from repro.ipc.domain import Credentials
    from repro.storage.block_device import BlockDevice
    from repro.types import PAGE_SIZE, AccessRights
    from repro.world import World

    world = World()
    node = world.create_node("reportnode")
    device = BlockDevice(node.nucleus, "sd0", 4096)
    sfs = create_sfs(node, device)
    dfs = DfsLayer(
        node.create_domain("dfs", Credentials("dfs", privileged=True)),
        forward_local_binds=False,
    )
    dfs.stack_on(sfs.top)
    user = world.create_user_domain(node, "report-user")
    with user.activate():
        f = dfs.create_file("demo.dat")
        f.write(0, b"layered telemetry demo " * 400)
        f.sync()
        f.read(0, PAGE_SIZE)
        mapping = node.vmm.create_address_space("report-demo").map(
            f, AccessRights.READ_WRITE
        )
        mapping.read(0, 2 * PAGE_SIZE)
        mapping.write(0, b"spine")
        mapping.cache.sync()
    return describe_stack(dfs) + "\n\n" + render_layer_breakdown(dfs)


def report_layer_breakdown() -> None:
    _heading("Per-layer channel telemetry — 3-deep stack")
    print(build_layer_breakdown_demo())
    print(
        "\nEvery pager/cache op a layer dispatches is counted once at the\n"
        "spine under <layer>.<op>; .bytes totals accompany data-carrying\n"
        "ops.  The same breakdown is available for any stack via\n"
        "repro.fs.stack.render_layer_breakdown(top)."
    )


FIGURES: Dict[str, Callable[[], Dict[str, object]]] = {
    "Figure 1 — Spring node structure": figures.fig01_node_structure,
    "Figure 2 — pager-cache channels": figures.fig02_pager_cache_channels,
    "Figure 3 — stack configuration (fs1..fs4)": figures.fig03_configuration,
    "Figure 4 — dual pager/cache-manager role": figures.fig04_dual_role,
    "Figure 5 — COMPFS case 1 (not coherent)": figures.fig05_compfs_case1,
    "Figure 6 — COMPFS case 2 (coherent)": figures.fig06_compfs_case2,
    "Figure 7 — DFS on SFS": figures.fig07_dfs,
    "Figure 8 — interface hierarchy": figures.fig08_interface_hierarchy,
    "Figure 9 — DFS on COMPFS on SFS": figures.fig09_full_stack,
    "Figure 10 — Spring SFS structure": figures.fig10_sfs_structure,
}


def report_figures() -> None:
    for title, builder in FIGURES.items():
        _heading(title)
        result = builder()
        for key, value in result.items():
            if isinstance(value, str) and "\n" in value:
                print(f"{key}:")
                for line in value.splitlines():
                    print(f"    {line}")
            else:
                print(f"{key}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.report", description=__doc__
    )
    parser.add_argument("--tables", action="store_true", help="tables only")
    parser.add_argument("--figures", action="store_true", help="figures only")
    parser.add_argument(
        "--quick", action="store_true", help="fewer measurement iterations"
    )
    args = parser.parse_args(argv)
    iterations, runs = (5, 1) if args.quick else (30, 3)
    everything = not (args.tables or args.figures)
    if args.tables or everything:
        report_tables(iterations, runs)
    if args.figures or everything:
        report_figures()
    if everything:
        report_layer_breakdown()
    print(f"\n{RULE}\nreport complete.\n{RULE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
