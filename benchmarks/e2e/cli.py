"""Command line of the end-to-end benchmark.

The contract form, one workload per run (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/__main__.py --workload read_hot_4k --seed 7 \\
        --seconds 8 --trace 0

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones; without ``--trace`` both runs are made, without
``--workload`` all six workloads, and the last line then holds the metrics
of each workload under its name.  The exit code is non-zero when any op
failed, any byte read was wrong or a prediction did not hold.

One run is one client process and the servers it spawns.  A command that
asks for several runs starts this same command once per run and relays
what it prints, so every number comes from a client with no history, as
the driver's do.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e import estimators, metrics, tracing
from benchmarks.e2e.harness import (
    ROOT, BenchmarkError, RunResult, Session, Sizes, run_workload,
)
from benchmarks.e2e.workloads import WORKLOADS

SCHEMA = 1
HISTORY = ROOT / "benchmarks" / "e2e" / "history.jsonl"
SMOKE_SECONDS = 0.2


def report(run: RunResult) -> dict:
    """Metrics, verdict and sample counts of one run, as plain data."""
    layer_values: Dict[str, float] = {}
    if run.trace:
        layer_values = metrics.per_layer(run)
        values = metrics.with_units(layer_values, "per_layer")
    else:
        values = metrics.with_units(metrics.end_to_end(run), "end_to_end")
    broken = metrics.predictions(run, layer_values)
    tally = run.tally
    return {
        "workload": run.workload, "seed": run.seed, "trace": int(run.trace),
        "correct": tally.failed == 0 and not broken,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_share": tally.failed / tally.attempted,
        "errors": tally.errors, "predictions_broken": broken,
        "metrics": values,
        "samples": {
            "timed_ops": run.timed.ops, "batches": len(run.timed.costs),
            "exact_ops": run.timed.exact_ops, "instr_ops": run.instr_ops,
            "span_ops": run.spans[2] if run.spans else 0,
            "setups": len(run.setup_seconds),
            "ref_kernel_ms": 1e3 * statistics.median(run.timed.ref_loop_seconds),
        },
        "durable_bytes": list(run.durable_bytes),
        "fsck_problems": run.fsck_problems,
    }


def print_report(rep: dict) -> None:
    print(f"== {rep['workload']} seed={rep['seed']} trace={rep['trace']} ==")
    for name, metric in rep["metrics"].items():
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']}")
    samples = rep["samples"]
    print(f"# ops attempted {rep['attempted']}, failed {rep['failed']} "
          f"(failed_share {rep['failed_share']:.6f})")
    print(f"# samples: {samples['timed_ops']} timed ops in {samples['batches']} "
          f"batches, {samples['exact_ops']} exact-count ops, "
          f"{samples['span_ops']} span ops, {samples['instr_ops']} instruction "
          f"ops, {samples['setups']} set-ups; ref kernel "
          f"{samples['ref_kernel_ms']:.3f} ms")
    if not rep["trace"]:
        acknowledged, intact = rep["durable_bytes"]
        print(f"# durability: {intact} of {acknowledged} acknowledged bytes "
              f"intact after kill -9; fsck: {rep['fsck_problems'] or 'clean'}")
    for line in rep["errors"] + rep["predictions_broken"]:
        print(f"# WRONG: {line}")


def contract_of(rep: dict) -> dict:
    return {key: rep[key] for key in ("correct", "attempted", "failed", "metrics")}


def merged(runs: List[Tuple[str, int]], lines: List[dict]) -> dict:
    """The contract lines of several runs as one; every workload reports
    the same names, so the metrics are keyed by workload."""
    metrics_: Dict[str, Dict[str, dict]] = {}
    for (workload, _trace), line in zip(runs, lines):
        metrics_.setdefault(workload, {}).update(line["metrics"])
    return {
        "correct": all(line["correct"] for line in lines),
        "attempted": sum(line["attempted"] for line in lines),
        "failed": sum(line["failed"] for line in lines),
        "metrics": metrics_,
    }


def provenance(seed: int) -> dict:
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"  # the driver's checkout is not a repository
    return {
        "schema": SCHEMA, "git": revision,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "seed": seed,
        "ref_nominal_s": estimators.REF_NOMINAL_S,
        "echo_nominal_s": estimators.ECHO_NOMINAL_S,
    }


def run_here(name: str, trace: int, seed: int, sizes: Sizes,
             trace_out: Optional[str], record: bool) -> dict:
    """One run in this process; prints the report, returns its contract
    line."""
    with Session() as session:
        run = run_workload(session, WORKLOADS[name], seed, sizes, bool(trace))
    rep = report(run)
    print_report(rep)
    if trace and trace_out:
        client, server = run.spans[:2]
        tracing.write_chrome_trace(trace_out, {"client": client, "server": server})
        print(f"# spans written to {trace_out}")
    if record:
        with open(HISTORY, "a") as fh:
            fh.write(json.dumps({**provenance(seed), **rep}) + "\n")
    return contract_of(rep)


def run_child(arguments: List[str]) -> dict:
    """One run in a client process of its own: relays what it prints and
    returns its last line, the contract line."""
    command = [sys.executable, str(Path(__file__).with_name("__main__.py"))]
    last = ""
    with subprocess.Popen(command + arguments, stdout=subprocess.PIPE,
                          text=True) as child:
        try:
            for line in child.stdout:
                print(last, end="", flush=True)
                last = line
        finally:
            if child.poll() is None:  # we are unwinding: take the child along
                child.terminate()
    # Exit code 1 is a run that found wrong output and said so in its line;
    # it is also what an uncaught exception exits with, which prints none.
    if child.returncode not in (0, 1) or not last.startswith("{"):
        print(last, end="")
        raise BenchmarkError(f"run {' '.join(arguments)} exited {child.returncode}")
    return json.loads(last)


def run_set(runs: List[Tuple[str, int]], args: argparse.Namespace) -> List[dict]:
    """The contract line of each ``(workload, trace)`` run, each made in
    its own client process."""
    lines = []
    several = len({workload for workload, _ in runs}) > 1
    for name, trace in runs:
        arguments = ["--workload", name, "--trace", str(trace),
                     "--seed", str(args.seed), "--seconds", str(args.seconds)]
        if args.smoke:
            arguments.append("--smoke")
        if args.record:
            arguments.append("--record")
        if args.trace_out and trace:
            arguments += ["--trace-out",
                          f"{name}.{args.trace_out}" if several else args.trace_out]
        lines.append(run_child(arguments))
    return lines


def check_repeat(runs: List[Tuple[str, int]], args: argparse.Namespace) -> bool:
    """Two full sets on the same code: relative difference of every
    end-to-end metric beside its bound; True when all are inside."""
    first = run_set(runs, args)
    second = run_set(runs, args)
    bounds = {m["name"]: m for m in metrics.contract()["end_to_end"]}
    exact = ("wire.frames_per_op", "wire.bytes_per_op", "invoke.local_per_op",
             "invoke.cross_domain_per_op", "invoke.network_per_op")
    inside = all(line["correct"] for line in first + second)
    print(f"{'workload':<16} {'metric':<28} {'first':>14} {'second':>14} "
          f"{'rel.diff':>9} {'bound':>7}")
    for (workload, _trace), one, two in zip(runs, first, second):
        for name, metric in one["metrics"].items():
            if name not in bounds and name not in exact:
                continue
            a, b = metric["value"], two["metrics"][name]["value"]
            diff = abs(b - a) / abs(a) if a else abs(b)
            bound = bounds[name]["bound"] if name in bounds else 0.0
            verdict = "" if diff <= bound else "  OUT OF BOUND"
            inside = inside and diff <= bound
            print(f"{workload:<16} {name:<28} {a:>14.6g} {b:>14.6g} "
                  f"{diff:>9.4f} {bound:>7.3f}{verdict}")
    return inside


def main(argv: Optional[List[str]] = None) -> int:
    spec = metrics.contract()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts: every phase and check, no usable numbers")
    parser.add_argument("--check-repeat", action="store_true",
                        help="two full sets; fail if an end-to-end metric differs "
                             "by more than its bound")
    parser.add_argument("--record", action="store_true",
                        help=f"append the result to {HISTORY.relative_to(ROOT)}")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the span run as Chrome trace-event JSON")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    traces = [0, 1] if args.trace is None else [args.trace]
    runs = [(name, trace) for name in names for trace in traces]
    # SIGTERM unwinds through the same finally blocks as an exception.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.check_repeat:
            return 0 if check_repeat(runs, args) else 1
        if len(runs) == 1:
            sizes = Sizes(seconds=args.seconds)
            if args.smoke:
                sizes = Sizes(seconds=SMOKE_SECONDS, smoke=True)
            line = run_here(*runs[0], args.seed, sizes, args.trace_out, args.record)
        else:
            line = merged(runs, run_set(runs, args))
    except BenchmarkError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0 if line["correct"] else 1
