"""Benchmark regression gate: one gate per record.

Rebuilds each benchmark record fresh and compares it with the committed
``BENCH_*.json``.  The simulation is deterministic, so a clean tree
reproduces every committed leaf that is not a wall-clock measurement
exactly; which leaves are wall-clock, and which module rebuilds a
record, is one table (:data:`RECORDS`).  Before anything is rebuilt,
the table and the committed files must match: a ``BENCH_*.json`` with no
row, or a row with no file, fails and is named.

**The exact check** runs next and on every record: every deterministic
leaf of the rebuilt record must equal the committed file, and the dotted
path of each one that does not is printed.  This is the
"no deterministic field moved" referee for a refactor — and the reminder
to re-emit a record after a change that *means* to move one.  It
subsumes a tolerance on any deterministic metric, so there is none; the
contracts a moved leaf may have broken are named in the failure text
(:data:`CONTRACTS`): the quorum cell's and the knobs-on cell's
``availability_pct`` is 100 — any failed op is a protocol regression —
and a compound batch over the wire is exactly one frame
(``frames_batched``).

**The wall-clock report** comes after it: the ``BENCH_hotpath.json``
metrics (ops/sec of the zero-copy data plane, MB/s of the bulk file
path) are measured, not simulated, and differ from host to host and run
to run — a clean tree reads 20–40 % under the committing host's figures
on a slower one.  They are printed beside the committed values and fail
only beyond :data:`WALL_CLOCK_COLLAPSE`: a 2x collapse is a real
regression on any host, anything less is weather.  The wall-clock
leaves of ``BENCH_socket.json`` (RTTs, batching speed-up) are
informational and not compared.

Usage (from the repo root)::

    PYTHONPATH=src:. python benchmarks/check_regression.py
"""

import argparse
import glob
import importlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from benchmarks.emit_common import BENCH_DIR, ensure_repo_on_path

ensure_repo_on_path()

#: committed file -> (module whose ``build_record()`` rebuilds it,
#: dotted-path prefixes of its wall-clock leaves).  Every other leaf of
#: a rebuilt record is deterministic.
RECORDS = {
    "BENCH_ipc.json": ("benchmarks.bench_ipc_compound", ()),
    "BENCH_paging.json": ("benchmarks.bench_macro_workload", ()),
    "BENCH_faults.json": ("benchmarks.bench_fault_recovery", ()),
    "BENCH_hotpath.json": ("benchmarks.bench_hotpath", ("metrics.",)),
    "BENCH_volume.json": ("benchmarks.bench_volume_persist", ()),
    "BENCH_socket.json": (
        "benchmarks.bench_socket_transport",
        (
            "cells.batching.elapsed_",
            "cells.batching.wall_speedup",
            "cells.socket.",
        ),
    ),
}

#: The record whose wall-clock leaves are reported — five rates, higher
#: is better — and the fraction of the committed value below which one
#: fails.
WALL_CLOCK_REPORTED = "BENCH_hotpath.json"
WALL_CLOCK_COLLAPSE = 0.5

#: Deterministic leaves that are contracts rather than measurements:
#: named when the exact check fails on one.
CONTRACTS = {
    "BENCH_faults.json:cells.knobs_on.availability_pct":
        "knobs-on availability is 100: a failed op is a protocol regression",
    "BENCH_socket.json:cells.batching.frames_batched":
        "a compound batch over the wire is exactly one frame",
}

#: Leaves holding wall-clock measurements, by record (derived).
WALL_CLOCK_LEAVES = {
    filename: prefixes for filename, (_, prefixes) in RECORDS.items() if prefixes
}


def leaves(value, prefix: str = ""):
    """``(dotted path, leaf)`` for every leaf of a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{prefix}{key}.")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, f"{prefix}{index}.")
    else:
        yield prefix[:-1], value


def moved_leaves(filename: str, committed: dict, rebuilt: dict) -> list:
    """Dotted paths of the deterministic leaves on which the rebuilt
    record and the committed one disagree (a leaf present on one side
    only counts)."""
    skip = WALL_CLOCK_LEAVES.get(filename, ())
    # Through JSON and back, so the rebuilt record has the committed
    # one's types (string keys, lists for tuples).
    old, new = dict(leaves(committed)), dict(leaves(json.loads(json.dumps(rebuilt))))
    return [
        path
        for path in sorted(old.keys() | new.keys())
        if not path.startswith(skip) and old.get(path) != new.get(path)
    ]


def half_records(bench_dir: str, records: dict) -> list:
    """Half a record: a committed ``BENCH_*.json`` that no row of
    ``records`` rebuilds, or a row whose file is not committed."""
    committed = {
        os.path.basename(path)
        for path in glob.glob(os.path.join(bench_dir, "BENCH_*.json"))
    }
    return [
        f"{name}: committed, but no RECORDS row rebuilds it"
        for name in sorted(committed - records.keys())
    ] + [
        f"{name}: a RECORDS row, but no committed file"
        for name in sorted(records.keys() - committed)
    ]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    halves = half_records(BENCH_DIR, RECORDS)
    for half in halves:
        print(f"  [HALF] {half}")
    if halves:
        print(
            "\nrecord table FAILED: every committed record needs a RECORDS "
            "row and every row a committed file.  Add the missing half, or "
            "remove both."
        )
        return 1

    records = {}  # committed file -> (committed record, freshly built one)
    for filename, (module_name, _) in RECORDS.items():
        with open(os.path.join(BENCH_DIR, filename)) as fh:
            records[filename] = (
                json.load(fh),
                importlib.import_module(module_name).build_record(),
            )

    moved = [
        f"{filename}:{path}"
        for filename, (committed, rebuilt) in records.items()
        for path in moved_leaves(filename, committed, rebuilt)
    ]
    for entry in moved:
        contract = CONTRACTS.get(entry)
        print(f"  [MOVED] {entry}" + (f"  — {contract}" if contract else ""))
    if moved:
        print(
            f"\nexact check FAILED: {len(moved)} deterministic field(s) differ "
            "from the committed records.  A refactor must not move them; "
            "after a change that means to, re-emit the records "
            "(PYTHONPATH=src:. python benchmarks/<module>.py) and commit "
            "the new baselines with an explanation."
        )
        return 1
    print(
        f"exact check OK: every deterministic field of {len(records)} "
        "rebuilt records equals the committed files."
    )

    collapsed = 0
    committed, rebuilt = (dict(leaves(r)) for r in records[WALL_CLOCK_REPORTED])
    for path, was in committed.items():
        if not path.startswith(WALL_CLOCK_LEAVES[WALL_CLOCK_REPORTED]):
            continue
        failed = rebuilt[path] < was * WALL_CLOCK_COLLAPSE
        collapsed += failed
        print(
            f"  [{'FAIL' if failed else 'wall':>4}] {WALL_CLOCK_REPORTED}:{path}  "
            f"committed={was} current={rebuilt[path]} "
            f"({100.0 * (rebuilt[path] - was) / was:+.1f}%)"
        )
    if collapsed:
        print(
            f"\nwall-clock report FAILED: {collapsed} metric(s) below "
            f"{WALL_CLOCK_COLLAPSE:.0%} of the committed value."
        )
        return 1
    print(
        "wall-clock report OK: host-dependent, shown for comparison; none "
        f"below {WALL_CLOCK_COLLAPSE:.0%} of the committed value."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
