"""Wall-clock hot-path throughput — the simulator's *own* speed.

Every other benchmark in this directory measures virtual time: the
modeled cost of the paper's mechanisms, deterministic to the last
microsecond.  This one measures the opposite — how many operations per
*real* second the Python hot paths sustain — because interpreter
overhead, not modeled cost, is what bounds big experiments (the macro
workload drives ~2k invocations for a toy build; a 2048-client load
sweep schedules millions of events).

Five scenarios, each timed with :func:`time.perf_counter` around the
hot loop only (world construction and re-dirtying excluded), reported
as the median of ``--repeats`` runs:

* ``cached_reads_per_sec`` — :meth:`Mapping.read` of resident pages
  through the VMM page store (the user-load fast path).
* ``flush_pages_per_sec`` — per-page ``VmCache.sync`` write-back of
  dirty pages through the full two-domain SFS dispatch spine.
* ``faults_per_sec`` — page faults refilled from the coherency layer's
  warm block cache (fault + channel dispatch, no modeled disk).
* ``events_per_sec`` — discrete-event scheduler frames (think/request
  alternation) with no file system at all.
* ``bulk_file_mb_per_sec`` — the bulk file path: truncate, one
  multi-page ``File.write`` and one ``File.read`` of the same range
  through the two-domain SFS, in MB of user data per real second (the
  in-repo guard for what ``benchmarks/e2e``'s ``stream_256k`` measures
  across the wire: a run demanded once, each byte copied once).

Unlike the virtual-time records, the committed numbers are inherently
host-dependent; the regression gate compares them with a wider (25%)
tolerance to absorb timer and scheduler noise.

Usage (from the repo root)::

    PYTHONPATH=src:. python benchmarks/bench_hotpath.py [--smoke]
        [--profile] [--repeats N]

``--smoke`` runs tiny iteration counts and does not write the record;
``--profile`` additionally dumps cProfile's hottest functions per
scenario to ``benchmarks/PROFILE_hotpath.txt`` (uploaded as a CI
artifact by the ``bench-hotpath`` job).
"""

import argparse
import cProfile
import io
import os
import pstats
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from benchmarks.emit_common import (
    BENCH_DIR,
    dump_record,
    ensure_repo_on_path,
    env_summary,
    write_record,
)

ensure_repo_on_path()

from repro.fs.sfs import create_sfs
from repro.sim.scheduler import Scheduler, request, think
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights
from repro.world import World

FILENAME = "BENCH_hotpath.json"
PROFILE_ARTIFACT = "PROFILE_hotpath.txt"

#: Iteration counts for the committed record vs the CI smoke run.
FULL = {
    "reads": 60_000,
    "read_pages": 8,
    "flush_rounds": 40,
    "flush_pages": 64,
    "fault_rounds": 80,
    "fault_pages": 64,
    "clients": 64,
    "requests": 40,
    "bulk_rounds": 120,
    "bulk_pages": 64,
    "repeats": 5,
}
SMOKE = {
    "reads": 2_000,
    "read_pages": 8,
    "flush_rounds": 3,
    "flush_pages": 16,
    "fault_rounds": 4,
    "fault_pages": 16,
    "clients": 8,
    "requests": 5,
    "bulk_rounds": 4,
    "bulk_pages": 16,
    "repeats": 3,
}


def _sfs_file(pages: int):
    """A two-domain SFS stack holding one synced ``pages``-page file.
    Returns ``(node, user, handle)``; all setup cost happens here,
    outside the timed region."""
    world = World()
    node = world.create_node("bench")
    device = BlockDevice(node.nucleus, "sd0", 32768)
    stack = create_sfs(node, device, placement="two_domains")
    user = world.create_user_domain(node)
    with user.activate():
        f = stack.top.create_file("hot.dat")
        f.write(0, bytes(range(256)) * (pages * PAGE_SIZE // 256))
        f.sync()
        handle = stack.top.resolve("hot.dat")
    return node, user, handle


def _mapped_file(pages: int, access: AccessRights):
    """:func:`_sfs_file` with the file mapped into an address space
    through the VMM.  Returns ``(user, mapping)``."""
    node, user, handle = _sfs_file(pages)
    with user.activate():
        mapping = node.vmm.create_address_space("bench").map(handle, access)
    return user, mapping


def run_cached_reads(cfg: dict):
    """Page-size reads of resident pages; returns (ops, seconds)."""
    pages = cfg["read_pages"]
    user, mapping = _mapped_file(pages, AccessRights.READ_ONLY)
    with user.activate():
        for index in range(pages):  # warm: fault everything in
            mapping.read(index * PAGE_SIZE, 1)
        offsets = [(i % pages) * PAGE_SIZE for i in range(cfg["reads"])]
        read = mapping.read
        t0 = time.perf_counter()
        for offset in offsets:
            read(offset, PAGE_SIZE)
        elapsed = time.perf_counter() - t0
    return cfg["reads"], elapsed


def run_flush_pages(cfg: dict):
    """Per-page write-back of dirty pages through the dispatch spine;
    only the ``sync`` calls are timed, not the re-dirtying writes."""
    pages = cfg["flush_pages"]
    user, mapping = _mapped_file(pages, AccessRights.READ_WRITE)
    cache = mapping.cache
    flushed = 0
    elapsed = 0.0
    with user.activate():
        for round_no in range(cfg["flush_rounds"]):
            marker = bytes([round_no & 0xFF]) * 32
            for index in range(pages):
                mapping.write(index * PAGE_SIZE, marker)
            t0 = time.perf_counter()
            flushed += cache.sync()
            elapsed += time.perf_counter() - t0
    return flushed, elapsed


def run_faults(cfg: dict):
    """Refault dropped pages out of the warm coherency cache; the
    drop between rounds is untimed."""
    pages = cfg["fault_pages"]
    user, mapping = _mapped_file(pages, AccessRights.READ_ONLY)
    cache = mapping.cache
    faulted = 0
    elapsed = 0.0
    with user.activate():
        for index in range(pages):  # warm the coherency-layer cache
            mapping.read(index * PAGE_SIZE, 1)
        read = mapping.read
        for _ in range(cfg["fault_rounds"]):
            cache.store.drop_range(0, pages * PAGE_SIZE)
            t0 = time.perf_counter()
            for index in range(pages):
                read(index * PAGE_SIZE, 1)
            elapsed += time.perf_counter() - t0
            faulted += pages
    return faulted, elapsed


def run_events(cfg: dict):
    """Scheduler frames: each client alternates think and a no-op
    request, so both frame kinds are exercised."""
    world = World()
    sched = Scheduler(world)

    def noop():
        return None

    def client(requests_per_client: int):
        for _ in range(requests_per_client):
            yield think(100.0)
            yield request(noop)

    for i in range(cfg["clients"]):
        sched.spawn(client(cfg["requests"]), name=f"c{i}")
    t0 = time.perf_counter()
    sched.run_all()
    elapsed = time.perf_counter() - t0
    return cfg["clients"] * cfg["requests"] * 2, elapsed


def run_bulk_file(cfg: dict):
    """Whole-file rewrite and read-back through the file interface:
    truncate, one multi-page ``File.write``, one ``File.read`` of the
    same range; returns (MB of user data moved, seconds)."""
    pages = cfg["bulk_pages"]
    _, user, handle = _sfs_file(pages)
    size = pages * PAGE_SIZE
    payloads = [bytes([fill]) * size for fill in (0x5A, 0xA5)]
    with user.activate():
        t0 = time.perf_counter()
        for round_no in range(cfg["bulk_rounds"]):
            data = payloads[round_no & 1]
            handle.set_length(0)
            handle.write(0, data)
            if handle.read(0, size) != data:
                raise AssertionError("bulk read-back differs from what was written")
        elapsed = time.perf_counter() - t0
    return cfg["bulk_rounds"] * 2 * size / 1e6, elapsed


SCENARIOS = [
    ("cached_reads_per_sec", run_cached_reads),
    ("flush_pages_per_sec", run_flush_pages),
    ("faults_per_sec", run_faults),
    ("events_per_sec", run_events),
    ("bulk_file_mb_per_sec", run_bulk_file),
]


def measure(cfg: dict) -> dict:
    """Median ops (or MB) per second per scenario over
    ``cfg['repeats']`` fresh runs."""
    metrics = {}
    for name, scenario in SCENARIOS:
        rates = []
        for _ in range(cfg["repeats"]):
            ops, seconds = scenario(cfg)
            rates.append(ops / seconds if seconds > 0 else 0.0)
        metrics[name] = round(statistics.median(rates), 1)
    return metrics


def profile_scenarios(cfg: dict, top_n: int = 25) -> str:
    """One profiled repetition per scenario; returns the report text."""
    sections = []
    for name, scenario in SCENARIOS:
        profiler = cProfile.Profile()
        profiler.enable()
        scenario(cfg)
        profiler.disable()
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("cumulative").print_stats(top_n)
        sections.append(f"=== {name} ===\n{buf.getvalue()}")
    return "\n".join(sections)


def build_record(cfg: dict = FULL) -> dict:
    return {
        "config": {key: value for key, value in sorted(cfg.items())},
        "metrics": measure(cfg),
        "timing": "wall-clock ops/sec, median of repeats; host-dependent",
    }


def summarize(record: dict) -> str:
    metrics = record["metrics"]
    return "; ".join(f"{key}={value:,.0f}" for key, value in metrics.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny iteration counts; validate the record, do not write it",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=f"dump cProfile hot functions to benchmarks/{PROFILE_ARTIFACT}",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="override the median-of-N repeat count",
    )
    args = parser.parse_args(argv)
    env = env_summary()
    print(
        "env: "
        + " ".join(f"{key}={value}" for key, value in sorted(env.items()))
    )
    cfg = dict(SMOKE if args.smoke else FULL)
    if args.repeats is not None:
        cfg["repeats"] = args.repeats
    record = build_record(cfg)
    rendered = dump_record(record)  # validates JSON-serializability
    print(summarize(record))
    if args.profile:
        artifact = os.path.join(BENCH_DIR, PROFILE_ARTIFACT)
        with open(artifact, "w") as fh:
            fh.write(profile_scenarios(cfg))
        print(f"wrote profile artifact {artifact}")
    if args.smoke:
        print(f"smoke OK: {FILENAME} ({len(rendered)} bytes, not written)")
        return 0
    out = os.path.join(BENCH_DIR, FILENAME)
    write_record(out, record)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
