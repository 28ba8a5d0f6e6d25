"""Virtual-time measurement harness.

The paper's methodology: "Each data point is the average of 5 runs of
10000 invocations of the given operation."  We reproduce the structure
(runs × iterations) over the *virtual* clock; because the simulation is
deterministic the variance is zero, but keeping the runs/iterations
shape makes the harness output line up with the paper's tables.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Sequence

from repro.sim.clock import StopWatch
from repro.world import World


@dataclasses.dataclass
class Measurement:
    """Mean virtual-time cost of one operation."""

    name: str
    mean_us: float
    runs: int
    iterations: int
    breakdown: Dict[str, float]

    @property
    def mean_ms(self) -> float:
        return self.mean_us / 1000.0


def measure(
    world: World,
    name: str,
    op: Callable[[], object],
    iterations: int = 100,
    runs: int = 5,
) -> Measurement:
    """Average virtual cost of ``op`` over ``runs`` x ``iterations``.

    One warm-up call runs first (uncounted) so caches reach steady
    state, matching how the paper's micro-benchmarks behave after the
    first touch.
    """
    op()
    total = 0.0
    breakdown: Dict[str, float] = {}
    for _ in range(runs):
        watch = StopWatch(world.clock)
        with watch:
            for _ in range(iterations):
                op()
        total += watch.elapsed_us
        for category, spent in watch.breakdown.items():
            breakdown[category] = breakdown.get(category, 0.0) + spent
    count = runs * iterations
    return Measurement(
        name=name,
        mean_us=total / count,
        runs=runs,
        iterations=iterations,
        breakdown={k: v / count for k, v in breakdown.items()},
    )


def measure_once(world: World, name: str, op: Callable[[], object]) -> Measurement:
    """Single-shot cost (for cold-cache / first-touch measurements)."""
    watch = StopWatch(world.clock)
    with watch:
        op()
    return Measurement(name, watch.elapsed_us, 1, 1, dict(watch.breakdown))


class TableFormatter:
    """Fixed-width table rendering for bench output, in the style of the
    paper's tables (absolute microseconds plus normalized percent)."""

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, label: str, values: Sequence[object]) -> None:
        rendered = [label] + [self._fmt(v) for v in values]
        self.rows.append(rendered)

    @staticmethod
    def _fmt(value: object) -> str:
        if isinstance(value, float):
            if value >= 1000:
                return f"{value / 1000:.2f} ms"
            return f"{value:.1f} us"
        return str(value)

    def render(self) -> str:
        header = [""] + self.columns
        widths = [
            max(len(str(row[i])) for row in [header] + self.rows)
            for i in range(len(header))
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            "  ".join(str(cell).rjust(width) for cell, width in zip(header, widths))
        )
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append(
                "  ".join(str(cell).rjust(width) for cell, width in zip(row, widths))
            )
        return "\n".join(lines)


def normalized(value: float, baseline: float) -> str:
    """Render the paper's second-line percentages ("normalized relative
    to the non-stacked implementation")."""
    if baseline == 0:
        return "n/a"
    return f"{value / baseline * 100:.0f}%"
