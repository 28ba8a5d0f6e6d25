"""Named metrics from one run's observations.

``BENCHMARK.json`` at the repo root is the contract: the names, units,
directions, bounds and each workload's ``why`` live there and only there.  This module computes a
value for every name and refuses to report if the two ever disagree.

End-to-end metrics come from the untraced run (``--trace 0``), per-layer
metrics from the traced run (``--trace 1``).
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

from benchmarks.e2e import estimators
from benchmarks.e2e.harness import ROOT, BenchmarkError, RunResult
from benchmarks.e2e.tracing import INSTR_ONLY_LAYERS, LAYERS, attribute, span_counts
from benchmarks.e2e.workloads import OP_KINDS

#: ``SimClock`` categories charged in sequential mode.
SIM_CATEGORIES = ("cpu", "disk", "network", "local_call", "cross_domain",
                  "syscall")
PLACEMENTS = ("one_domain", "two_domains")
READ_ONLY = ("meta_open_stat", "read_hot_4k", "read_cold_4k")


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def per_layer_names() -> List[str]:
    names: List[str] = []
    for layer in LAYERS:
        if layer not in INSTR_ONLY_LAYERS:
            names += [f"{layer}.self_us_per_op", f"{layer}.calls_per_op"]
        names.append(f"{layer}.instr_per_op")
    names += ["client.ops_per_s_raw", "client.op_p50_us", "client.op_p99_us"]
    names += [f"client.p50_us.{kind}" for kind in OP_KINDS]
    names += [
        "client.cpu_us_per_op", "client.ref_kernel_ms",
        "transport.gap_us_per_op", "transport.ping_rtt_us",
        "transport.retries", "transport.reconnects",
        "wire.encode_us_per_op", "wire.decode_us_per_op", "wire.bytes_per_op",
        "wire.frames_per_op", "wire.overhead_ratio",
        "serve.cpu_us_per_op",
        "invoke.local_per_op", "invoke.cross_domain_per_op",
        "invoke.network_per_op",
        "fs.coherency.read_hit_ratio",
        "vmm.faults_per_op", "vmm.resident_pages",
        "block_device.reads_per_op", "block_device.writes_per_op",
        "blockstore.read_calls_per_op", "blockstore.write_calls_per_op",
        "blockstore.flushes_per_op", "blockstore.bytes_written_per_user_byte",
        "blockstore.image_bytes_per_user_byte",
    ]
    names += [f"sim.virt_us.{category}" for category in SIM_CATEGORIES]
    names += ["sim.charges_per_op", "sim.wall_over_virt",
              "trace.residual_share", "trace.overhead_ratio"]
    names += [f"fs.stack_cost_ratio.{p}" for p in PLACEMENTS]
    names += [f"sim.stack_virt_ratio.{p}" for p in PLACEMENTS]
    return names


def end_to_end(run: RunResult) -> Dict[str, float]:
    timed = run.timed
    return {
        "ops_per_s_norm": estimators.ops_per_s_norm(timed.costs),
        "py_instr_per_op": sum(run.instr_by_layer.values()) / run.instr_ops,
        "virt_us_per_op": timed.exact["virt_us"] / timed.exact_ops,
        "server_rss_mb": run.rss_mb,
        "durable_share": run.durable_share,
        "setup_s": statistics.median(run.setup_seconds),
    }


def per_layer(run: RunResult) -> Dict[str, float]:
    timed = run.timed
    ops = timed.exact_ops
    exact = timed.exact
    counters = exact["counters"]
    out = {name: 0.0 for name in per_layer_names()}

    # --- spans --------------------------------------------------------------
    # Span times are restated at the nominal machine speed, like the
    # rate: the run is bracketed by the reference.
    client_spans, server_spans, span_ops, span_slow, span_bytes_written = run.spans
    nominal = 1.0 / span_slow / span_ops
    account = attribute(client_spans, server_spans, span_ops)
    for layer, (self_us, calls) in account["layers"].items():
        if layer not in INSTR_ONLY_LAYERS:
            out[f"{layer}.self_us_per_op"] = self_us * nominal
            out[f"{layer}.calls_per_op"] = calls / span_ops
    out["transport.gap_us_per_op"] = account["gap_us"] * nominal
    out["trace.residual_share"] = account["residual_us"] / account["op_us"]
    untraced_us = 1e6 * statistics.median(timed.costs)
    out["trace.overhead_ratio"] = account["op_us"] * nominal / untraced_us
    counts = span_counts(list(client_spans) + list(server_spans))
    out["wire.encode_us_per_op"] = counts["encode_us"] * nominal
    out["wire.decode_us_per_op"] = counts["decode_us"] * nominal
    out["blockstore.read_calls_per_op"] = counts["store_reads"] / span_ops
    out["blockstore.write_calls_per_op"] = counts["store_writes"] / span_ops
    out["blockstore.flushes_per_op"] = counts["store_flushes"] / span_ops
    if span_bytes_written:
        out["blockstore.bytes_written_per_user_byte"] = (
            counts["store_bytes_written"] / span_bytes_written
        )

    # --- instructions -------------------------------------------------------
    for layer, count in run.instr_by_layer.items():
        out[f"{layer}.instr_per_op"] = count / run.instr_ops

    # --- the client's view (untraced, raw wall clock) --------------------------
    all_latencies = sorted(
        value for values in timed.latencies.values() for value in values
    )
    out["client.ops_per_s_raw"] = len(all_latencies) / sum(all_latencies)
    out["client.op_p50_us"] = 1e6 * estimators.percentile(all_latencies, 0.50)
    if len(all_latencies) >= 1000:
        out["client.op_p99_us"] = 1e6 * estimators.percentile(all_latencies, 0.99)
    for kind, values in timed.latencies.items():
        out[f"client.p50_us.{kind}"] = 1e6 * statistics.median(values)
    out["client.cpu_us_per_op"] = 1e6 * timed.client_cpu_s / timed.ops
    out["client.ref_kernel_ms"] = 1e3 * statistics.median(timed.ref_loop_seconds)
    out["serve.cpu_us_per_op"] = timed.server_cpu_us / timed.ops
    out["transport.ping_rtt_us"] = 1e6 * statistics.median(run.ping_seconds)
    out["transport.retries"] = run.retries
    out["transport.reconnects"] = run.reconnects

    # --- exact counts over the fixed-count segment ----------------------------
    wire = timed.exact_wire
    out["wire.frames_per_op"] = wire["frames"] / ops
    out["wire.bytes_per_op"] = (wire["bytes_out"] + wire["bytes_in"]) / ops
    if timed.exact_payload_bytes:
        out["wire.overhead_ratio"] = (
            (wire["bytes_out"] + wire["bytes_in"]) / timed.exact_payload_bytes
        )
    for path in ("local", "cross_domain", "network"):
        out[f"invoke.{path}_per_op"] = counters.get(f"invoke.{path}", 0) / ops
    if timed.exact_reads:
        out["fs.coherency.read_hit_ratio"] = max(
            0.0, 1.0 - exact["device_reads"] / timed.exact_reads
        )
    out["vmm.faults_per_op"] = counters.get("vmm.fault", 0) / ops
    out["vmm.resident_pages"] = timed.resident_pages
    out["block_device.reads_per_op"] = exact["device_reads"] / ops
    out["block_device.writes_per_op"] = exact["device_writes"] / ops
    out["blockstore.image_bytes_per_user_byte"] = (
        run.image_allocated_bytes / run.user_bytes_stored
    )
    virt_us = exact["virt_us"] / ops
    for category in SIM_CATEGORIES:
        out[f"sim.virt_us.{category}"] = exact["categories"].get(category, 0.0) / ops
    out["sim.charges_per_op"] = sum(exact["charges"].values()) / ops
    out["sim.wall_over_virt"] = 1e6 / estimators.ops_per_s_norm(timed.costs) / virt_us

    # --- stacking placements (meta_open_stat only; 0 elsewhere) ---------------
    for placement, (cost_ratio, virt_ratio) in run.stacking.items():
        out[f"fs.stack_cost_ratio.{placement}"] = cost_ratio
        out[f"sim.stack_virt_ratio.{placement}"] = virt_ratio
    return out


def predictions(run: RunResult, layer_metrics: Dict[str, float]) -> List[str]:
    """What must hold on this workload; returns the violations."""
    name = run.workload
    timed = run.timed
    broken: List[str] = []

    def expect(condition: bool, what: str) -> None:
        if not condition:
            broken.append(f"{name}: expected {what}")

    device_reads = timed.exact["device_reads"] / timed.exact_ops
    network = timed.exact["counters"].get("invoke.network", 0)
    if name == "read_hot_4k":
        expect(device_reads == 0, "block_device.reads_per_op = 0")
    if name == "read_cold_4k":
        expect(device_reads >= 1, "block_device.reads_per_op >= 1")
    if name == "dfs_mixed":
        expect(network > 0, "invoke.network_per_op > 0")
    else:
        expect(network == 0, "invoke.network_per_op = 0")
    if run.durable_share is not None and name in READ_ONLY:
        expect(run.durable_share == 1.0, "durable_share = 1.0")
    if layer_metrics:
        dfs_calls = layer_metrics["fs.dfs.calls_per_op"]
        if name == "dfs_mixed":
            expect(dfs_calls > 0, "fs.dfs.calls_per_op > 0")
        else:
            expect(dfs_calls == 0, "fs.dfs.calls_per_op = 0")
        expect(layer_metrics["trace.residual_share"] <= 0.10,
               "trace.residual_share <= 0.10")
    return broken


def with_units(values: Dict[str, float], section: str) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for one section of the contract."""
    declared = {m["name"]: m["unit"] for m in contract()[section]}
    if set(declared) != set(values):
        odd = sorted(set(declared) ^ set(values))
        raise BenchmarkError(f"BENCHMARK.json {section} and the code disagree: {odd}")
    return {name: {"value": values[name], "unit": declared[name]}
            for name in declared}
