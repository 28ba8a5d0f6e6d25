"""Table 3 reproduction — SunOS 4.1.3 baseline, and the Spring/SunOS
comparison ("Spring is from 2 to 7 times slower than SunOS")."""

from __future__ import annotations

import dataclasses
import functools
from typing import Dict

from repro.baseline.sunos import SunOsFs
from repro.bench.harness import Measurement, TableFormatter, measure
from repro.bench.table2 import _measure_cell
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE
from repro.world import World

PAPER_SUNOS_US = {"open": 127.0, "4KB read": 82.0, "4KB write": 86.0, "fstat": 28.0}


@dataclasses.dataclass
class Table3Result:
    sunos: Dict[str, Measurement]
    spring: Dict[str, Measurement]

    def ratio(self, op: str) -> float:
        return self.spring[op].mean_us / self.sunos[op].mean_us

    def render(self) -> str:
        table = TableFormatter(
            "Table 3: SunOS 4.1.3 vs Spring SFS (not stacked, cached)",
            ["SunOS", "paper SunOS", "Spring", "Spring/SunOS"],
        )
        for op in PAPER_SUNOS_US:
            table.add_row(
                op,
                [
                    self.sunos[op].mean_us,
                    PAPER_SUNOS_US[op],
                    self.spring[op].mean_us,
                    f"{self.ratio(op):.1f}x",
                ],
            )
        return table.render()


#: What one iteration of each row does to the SunOS file system and an
#: open descriptor on ``bench.dat``.
SUNOS_OPS = {
    "open": lambda fs, fd: fs.open("bench.dat"),
    "4KB read": lambda fs, fd: fs.pread(fd, PAGE_SIZE, 0),
    "4KB write": lambda fs, fd: fs.pwrite(fd, b"w" * PAGE_SIZE, 0),
    "fstat": lambda fs, fd: fs.fstat(fd),
}


def run_table3(iterations: int = 100, runs: int = 5) -> Table3Result:
    world = World()
    node = world.create_node("sunos-host")
    device = BlockDevice(node.nucleus, "sd0", 8192)
    fs = SunOsFs(world, device)
    fd = fs.open("bench.dat", create=True)
    fs.pwrite(fd, b"b" * PAGE_SIZE, 0)
    fs.pread(fd, PAGE_SIZE, 0)  # warm the buffer cache
    sunos = {
        op: measure(world, op, functools.partial(run, fs, fd), iterations, runs)
        for op, run in SUNOS_OPS.items()
    }
    # The Spring column is Table 2's not-stacked cached cell.  The
    # paper's "2 to 7 times slower" bracket holds against the non-stacked
    # implementation (the stacked two-domain open is ~8x SunOS — which is
    # exactly why sec. 6.4 flags the open stacking overhead as "very
    # significant when compared to the much faster SunOS open").
    spring = {
        op: _measure_cell(
            "not_stacked", True, "stat" if op == "fstat" else op,
            iterations, runs,
        )
        for op in SUNOS_OPS
    }
    return Table3Result(sunos, spring)
