"""Unit tests for the bench harness, workload generators, world
counters, and the report generator."""

import zlib

import pytest

from repro.bench.harness import (
    Measurement,
    TableFormatter,
    measure,
    measure_once,
    normalized,
)
from repro.bench.workloads import (
    compressible_bytes,
    file_names,
    incompressible_bytes,
    pattern_bytes,
)
from repro.world import World


class TestMeasure:
    def test_mean_of_constant_op(self, world):
        def op():
            world.clock.advance(10, "cpu")

        result = measure(world, "op", op, iterations=5, runs=3)
        assert result.mean_us == 10
        assert result.runs == 3 and result.iterations == 5

    def test_warmup_not_counted(self, world):
        state = {"first": True}

        def op():
            if state["first"]:
                world.clock.advance(1000, "cpu")  # cold first call
                state["first"] = False
            else:
                world.clock.advance(10, "cpu")

        result = measure(world, "op", op, iterations=10, runs=2)
        assert result.mean_us == 10

    def test_breakdown_per_iteration(self, world):
        def op():
            world.clock.advance(6, "disk")
            world.clock.advance(4, "cpu")

        result = measure(world, "op", op, iterations=4, runs=2)
        assert result.breakdown["disk"] == pytest.approx(6)
        assert result.breakdown["cpu"] == pytest.approx(4)

    def test_measure_once(self, world):
        result = measure_once(world, "x", lambda: world.clock.advance(7))
        assert result.mean_us == 7

    def test_mean_ms(self):
        assert Measurement("x", 1500.0, 1, 1, {}).mean_ms == 1.5


class TestTableFormatter:
    def test_render_aligns_columns(self):
        table = TableFormatter("T", ["a", "b"])
        table.add_row("row1", [100.0, 2000.0])
        table.add_row("longer-row", [1.0, 1_000_000.0])
        out = table.render()
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "100.0 us" in out
        assert "1000.00 ms" in out  # >= 1000 us rendered in ms
        widths = {len(line) for line in lines[2:]}
        assert len(widths) == 1  # all rows same width

    def test_normalized(self):
        assert normalized(139.0, 100.0) == "139%"
        assert normalized(5, 0) == "n/a"


class TestWorkloads:
    def test_compressible_compresses(self):
        blob = compressible_bytes(50_000, seed=1)
        assert len(zlib.compress(blob)) < len(blob) / 2

    def test_incompressible_does_not(self):
        blob = incompressible_bytes(50_000, seed=1)
        assert len(zlib.compress(blob)) > len(blob) * 0.9

    def test_deterministic_by_seed(self):
        assert compressible_bytes(1000, seed=3) == compressible_bytes(1000, seed=3)
        assert compressible_bytes(1000, seed=3) != compressible_bytes(1000, seed=4)
        assert incompressible_bytes(100, 1) == incompressible_bytes(100, 1)

    def test_pattern_bytes_self_describing(self):
        a = pattern_bytes(1000, tag=1)
        b = pattern_bytes(1000, tag=2)
        assert a != b
        assert pattern_bytes(1000, tag=1) == a
        assert len(a) == 1000

    def test_file_names_unique(self):
        names = file_names(100)
        assert len(set(names)) == 100


class TestUnusedImportScan:
    def test_the_tree_is_clean_and_a_dead_import_is_found(self, capsys):
        from benchmarks.check_unused_imports import main, unused_imports

        assert main([]) == 0
        source = (
            "import os\nimport sys\nfrom typing import Dict, List\n"
            "def f(x: 'List') -> None:\n    return sys.argv\n"
        )
        assert unused_imports(source) == [(1, "os"), (3, "Dict")]
        assert "never used" not in capsys.readouterr().out


class TestCounters:
    def test_inc_amount(self, world):
        world.counters.inc("x", 5)
        world.counters.inc("x")
        assert world.counters.get("x") == 6

    def test_reset(self, world):
        world.counters.inc("x")
        world.counters.reset()
        assert world.counters.get("x") == 0

    def test_delta_since_ignores_unchanged(self, world):
        world.counters.inc("a")
        snapshot = world.counters.snapshot()
        world.counters.inc("b", 2)
        assert world.counters.delta_since(snapshot) == {"b": 2}


class TestReport:
    def test_quick_report_runs(self, capsys):
        from repro.report import main

        assert main(["--quick", "--figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "report complete" in out

    def test_tables_only(self, capsys):
        from repro.report import main

        assert main(["--quick", "--tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "Table 3" in out
        assert "Figure 5" not in out


class TestRegressionGateExactCheck:
    """``benchmarks/check_regression.py``: every leaf of a rebuilt
    record that is not a wall-clock measurement must equal the committed
    file; the differing dotted paths are what it prints."""

    def test_moved_leaves_names_paths_and_skips_wall_clock(self):
        from benchmarks.check_regression import moved_leaves

        committed = {
            "cells": {
                "batching": {"frames_batched": 1, "elapsed_batched_ms": 3.8},
                "simulated": {"rows": [1, 2], "gone": 5},
                "socket": {"rtt_small_p50_us": 28.1},
            }
        }
        rebuilt = {
            "cells": {
                "batching": {"frames_batched": 2, "elapsed_batched_ms": 9.9},
                "simulated": {"rows": (1, 3), "new": 7},
                "socket": {"rtt_small_p50_us": 55.0},
            }
        }
        assert moved_leaves("BENCH_socket.json", committed, rebuilt) == [
            "cells.batching.frames_batched",
            "cells.simulated.gone",
            "cells.simulated.new",
            "cells.simulated.rows.1",
        ]
        assert moved_leaves("BENCH_socket.json", committed, committed) == []
        # A record with no wall-clock leaves is compared whole.
        assert "cells.socket.rtt_small_p50_us" in moved_leaves(
            "BENCH_ipc.json", committed, rebuilt
        )


class TestRegressionGateRefusesHalfARecord:
    """The gate fails before rebuilding anything, naming the file, when
    a committed ``BENCH_*.json`` has no ``RECORDS`` row or a row has no
    committed file."""

    @staticmethod
    def _gate(monkeypatch, tmp_path, files, rows):
        from benchmarks import check_regression

        for name in files:
            (tmp_path / name).write_text("{}")
        monkeypatch.setattr(check_regression, "BENCH_DIR", str(tmp_path))
        monkeypatch.setattr(
            check_regression, "RECORDS", {name: ("unused", ()) for name in rows}
        )
        return check_regression.main([])

    def test_a_committed_record_with_no_row_fails(self, monkeypatch, tmp_path, capsys):
        files = ["BENCH_a.json", "BENCH_b.json"]
        assert self._gate(monkeypatch, tmp_path, files, ["BENCH_a.json"]) == 1
        assert "BENCH_b.json: committed, but no RECORDS row" in capsys.readouterr().out

    def test_a_row_with_no_file_fails(self, monkeypatch, tmp_path, capsys):
        rows = ["BENCH_a.json", "BENCH_gone.json"]
        assert self._gate(monkeypatch, tmp_path, ["BENCH_a.json"], rows) == 1
        assert "BENCH_gone.json: a RECORDS row, but no committed file" in (
            capsys.readouterr().out
        )

    def test_the_committed_records_are_whole(self):
        from benchmarks.check_regression import RECORDS, half_records
        from benchmarks.emit_common import BENCH_DIR

        assert half_records(BENCH_DIR, RECORDS) == []
