"""The one command, end to end, at tiny sizes — and where it must fail."""

import json
import shutil
import subprocess
import sys
import time

from benchmarks.e2e.harness import ROOT

ENTRY = ["benchmarks/e2e/__main__.py"]


def _servers_alive():
    out = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True).stdout
    return [line for line in out.splitlines() if "benchmarks.e2e.server" in line]


def test_smoke_runs_all_six_workloads_both_traces_and_cleans_up():
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable] + ENTRY + ["--smoke", "--seed", "11"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert list(last["metrics"]) == [w["name"] for w in spec["workloads"]]
    for workload, values in last["metrics"].items():
        assert set(values) == declared, workload
    rates = {values["ops_per_s_norm"]["value"] for values in last["metrics"].values()}
    assert len(rates) == 6  # each workload's own numbers, not one workload's six times
    assert proc.stdout.count("trace=0 ==") == 6 and proc.stdout.count("trace=1 ==") == 6
    assert elapsed < 30, f"--smoke took {elapsed:.1f}s"
    assert not _servers_alive()
    assert not (ROOT / ".bench_e2e").exists()
    assert not (ROOT / "benchmarks" / "e2e" / "history.jsonl").exists()


def test_contract_form_prints_exactly_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable] + ENTRY + ["--workload", "read_cold_4k", "--seed", "2",
                                        "--seconds", "1", "--trace", str(trace),
                                        "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert list(last["metrics"]) == [m["name"] for m in spec[section]]
        for metric in spec[section]:
            got = last["metrics"][metric["name"]]
            assert set(got) == {"value", "unit"} and got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
        if trace == 0:
            assert all(last["metrics"][m["name"]]["value"] != 0
                       for m in spec["end_to_end"])


def test_exits_non_zero_where_the_program_is_missing(tmp_path):
    """The driver also runs the command in a directory that holds only
    BENCHMARK.json and the benchmark's own files."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "history.jsonl"),
    )
    proc = subprocess.run(
        [sys.executable] + ENTRY + ["--workload", "read_hot_4k", "--seed", "1",
                                    "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
