"""Benchmark regression gate.

Rebuilds each benchmark record fresh (the simulation is deterministic,
so a clean tree reproduces the committed bytes exactly) and compares the
*headline* metrics against the committed ``BENCH_*.json``.  The gate
fails when a metric is more than 10% worse than the committed value —
which catches both genuine performance regressions and records someone
forgot to re-emit after changing the cost model.

Headline metrics:

* ``BENCH_ipc.json`` — messages and elapsed time of the compound /
  name-cache cells (the point of the compound-invocation work).
* ``BENCH_paging.json`` — batched flush time and device writes (the
  point of the vectored-paging work).
* ``BENCH_faults.json`` — knobs-on availability and workload time under
  the reference fault schedule (the point of the fault-tolerance work).
* ``BENCH_load.json`` — peak throughput of the monolithic / stacked /
  DFS configurations under the concurrent load sweep (the point of the
  discrete-event scheduler work).
* ``BENCH_hotpath.json`` — wall-clock ops/sec of the zero-copy data
  plane (the point of the memoryview/__slots__ work) and MB/s of the
  bulk file path (a multi-page read or write demanded by the run, each
  byte copied once).  Unlike every
  other record these are *wall-clock* measurements, so they carry a
  wider per-entry tolerance (25%) to absorb shared-runner noise while
  still catching a real 2x collapse.
* ``BENCH_shard.json`` — availability and tail latency of the quorum
  cell while one datanode crashes mid-write (the point of the sharded
  replication work).  Availability carries a zero tolerance — the
  quorum cell's contract is 100%, and *any* failed op is a protocol
  regression, not noise; the deterministic p99 gets the default.
* ``BENCH_volume.json`` — mount/remount and cold-stat costs of
  image-backed persistent volumes (the point of the pluggable
  block-store work): mount is one transfer per metadata region
  (``1 + 2 x groups`` reads — the 100k-file mount is ROADMAP's tracked
  number), and the clean-unmount flush one transfer per run per step.
* ``BENCH_socket.json`` — simulated per-message virtual cost (what
  ``Network.transfer`` charges) and the real-socket compound-batching
  frame counts.  The gated metrics are deterministic protocol
  facts — the wall-clock RTT cells in the record are informational
  only; ``frames_batched`` carries zero tolerance because a compound
  batch over the wire is exactly one frame or the batching is broken.

After the headline gate comes the **exact check**: every leaf of every
rebuilt record that is not a wall-clock measurement
(:data:`WALL_CLOCK_LEAVES`) must equal the committed file, and the
dotted path of each one that does not is printed.  This is the "no
deterministic field moved" referee for a refactor — and the reminder to
re-emit a record after a change that *means* to move one.

Usage (from the repo root)::

    PYTHONPATH=src:. python benchmarks/check_regression.py [--tolerance 0.10]
"""

import argparse
import importlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from benchmarks.emit_common import BENCH_DIR, ensure_repo_on_path

ensure_repo_on_path()

#: Wall-clock metrics need headroom for shared-runner noise that the
#: deterministic virtual-time records never see.
WALL_CLOCK_TOLERANCE = 0.25

#: (committed file, emitter module, dotted metric path, direction,
#: per-entry tolerance or None for the ``--tolerance`` default).
#: ``lower`` metrics regress upward; ``higher`` metrics regress downward.
HEADLINE = [
    ("BENCH_ipc.json", "benchmarks.emit_bench_ipc",
     "cells.compound.messages", "lower", None),
    ("BENCH_ipc.json", "benchmarks.emit_bench_ipc",
     "cells.namecache+compound.messages", "lower", None),
    ("BENCH_ipc.json", "benchmarks.emit_bench_ipc",
     "cells.namecache+compound.elapsed_ms", "lower", None),
    ("BENCH_paging.json", "benchmarks.emit_bench_paging",
     "vectored_flush.batched.elapsed_ms", "lower", None),
    ("BENCH_paging.json", "benchmarks.emit_bench_paging",
     "vectored_flush.batched.device_writes", "lower", None),
    ("BENCH_faults.json", "benchmarks.bench_fault_recovery",
     "cells.knobs_on.availability_pct", "higher", None),
    ("BENCH_faults.json", "benchmarks.bench_fault_recovery",
     "cells.knobs_on.elapsed_ms", "lower", None),
    ("BENCH_load.json", "benchmarks.bench_load_sweep",
     "configs.monolithic.peak_throughput_rps", "higher", None),
    ("BENCH_load.json", "benchmarks.bench_load_sweep",
     "configs.stacked.peak_throughput_rps", "higher", None),
    ("BENCH_load.json", "benchmarks.bench_load_sweep",
     "configs.dfs.peak_throughput_rps", "higher", None),
    ("BENCH_hotpath.json", "benchmarks.bench_hotpath",
     "metrics.cached_reads_per_sec", "higher", WALL_CLOCK_TOLERANCE),
    ("BENCH_hotpath.json", "benchmarks.bench_hotpath",
     "metrics.flush_pages_per_sec", "higher", WALL_CLOCK_TOLERANCE),
    ("BENCH_hotpath.json", "benchmarks.bench_hotpath",
     "metrics.faults_per_sec", "higher", WALL_CLOCK_TOLERANCE),
    ("BENCH_hotpath.json", "benchmarks.bench_hotpath",
     "metrics.events_per_sec", "higher", WALL_CLOCK_TOLERANCE),
    ("BENCH_hotpath.json", "benchmarks.bench_hotpath",
     "metrics.bulk_file_mb_per_sec", "higher", WALL_CLOCK_TOLERANCE),
    ("BENCH_shard.json", "benchmarks.bench_dfs_shard",
     "cells.quorum.availability_pct", "higher", 0.0),
    ("BENCH_shard.json", "benchmarks.bench_dfs_shard",
     "cells.quorum.p99_ms", "lower", None),
    ("BENCH_shard.json", "benchmarks.bench_dfs_shard",
     "cells.quorum.elapsed_ms", "lower", None),
    ("BENCH_volume.json", "benchmarks.bench_volume_persist",
     "cells.10k.mount_us", "lower", None),
    ("BENCH_volume.json", "benchmarks.bench_volume_persist",
     "cells.100k.mount_us", "lower", None),
    ("BENCH_volume.json", "benchmarks.bench_volume_persist",
     "cells.10k.cold_stat_us", "lower", None),
    ("BENCH_volume.json", "benchmarks.bench_volume_persist",
     "cells.100k.mount_reads", "lower", None),
    ("BENCH_volume.json", "benchmarks.bench_volume_persist",
     "cells.100k.unmount_writes", "lower", None),
    ("BENCH_socket.json", "benchmarks.bench_socket_transport",
     "cells.simulated.per_message_small_us", "lower", None),
    ("BENCH_socket.json", "benchmarks.bench_socket_transport",
     "cells.simulated.per_message_page_us", "lower", None),
    ("BENCH_socket.json", "benchmarks.bench_socket_transport",
     "cells.batching.frames_individual", "lower", None),
    ("BENCH_socket.json", "benchmarks.bench_socket_transport",
     "cells.batching.frames_batched", "lower", 0.0),
]


#: Leaves holding wall-clock measurements, by dotted-path prefix: they
#: differ from host to host and run to run.  Every other leaf of a
#: rebuilt record is deterministic.
WALL_CLOCK_LEAVES = {
    "BENCH_hotpath.json": ("metrics.",),
    "BENCH_socket.json": (
        "cells.batching.elapsed_",
        "cells.batching.wall_speedup",
        "cells.socket.",
    ),
}


def dig(record: dict, path: str):
    value = record
    for key in path.split("."):
        value = value[key]
    return value


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional regression before failing (default 0.10)",
    )
    args = parser.parse_args(argv)

    records = {}  # committed file -> (committed record, freshly built one)
    failures = []
    for filename, module_name, path, direction, tolerance in HEADLINE:
        if tolerance is None:
            tolerance = args.tolerance
        if filename not in records:
            with open(os.path.join(BENCH_DIR, filename)) as fh:
                records[filename] = (
                    json.load(fh),
                    importlib.import_module(module_name).build_record(),
                )
        committed = dig(records[filename][0], path)
        current = dig(records[filename][1], path)
        if direction == "lower":
            regressed = current > committed * (1 + tolerance)
        else:
            regressed = current < committed * (1 - tolerance)
        delta_pct = (
            100.0 * (current - committed) / committed if committed else 0.0
        )
        status = "FAIL" if regressed else "ok"
        print(
            f"  [{status:>4}] {filename}:{path}  "
            f"committed={committed} current={current} ({delta_pct:+.1f}%)"
        )
        if regressed:
            failures.append((filename, path, committed, current))

    if failures:
        print(
            f"\nregression gate FAILED: {len(failures)} headline metric(s) "
            "worse than committed by more than their tolerance."
        )
        print(
            "If the change is intentional, re-emit the affected records "
            "(PYTHONPATH=src:. python benchmarks/<emitter>.py) and commit "
            "the new baselines with an explanation."
        )
        return 1
    print(
        f"\nregression gate OK: {len(HEADLINE)} headline metrics within "
        "tolerance of committed baselines."
    )

    moved = [
        f"{filename}:{path}"
        for filename, (committed, rebuilt) in records.items()
        for path in moved_leaves(filename, committed, rebuilt)
    ]
    for entry in moved:
        print(f"  [MOVED] {entry}")
    if moved:
        print(
            f"\nexact check FAILED: {len(moved)} deterministic field(s) differ "
            "from the committed records.  A refactor must not move them; "
            "after a change that means to, re-emit the records."
        )
        return 1
    print(
        f"exact check OK: every deterministic field of {len(records)} "
        "rebuilt records equals the committed files."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
