"""Estimators: the noise-normalised rate and percentiles.

The sandbox slows down ~1.7x for tens of seconds at a time with no
steal time to filter on, so raw ops/s does not repeat within a tenth.
Measured ops therefore run in short batches bracketed by a
:class:`Reference` measurement of how slow the machine is right now: a
batch's time is divided by the slowness on either side of it, which
restates it in *nominal* seconds, and the first quartile over batches
is taken.  Set-up time is normalised the same way.
"""

from __future__ import annotations

import asyncio
import math
import socket
import statistics
from time import perf_counter
from typing import List, Sequence

#: What one :func:`ref_kernel` call and one :class:`EchoKernel` call are
#: *defined* to cost, in seconds.  Fixed forever: changing either rescales
#: every ``ops_per_s_norm`` ever recorded.  (About 1.25 times what they
#: take on the sandbox this benchmark was written on, so normalised and
#: raw rates are of the same size.)
REF_NOMINAL_S = 0.005
ECHO_NOMINAL_S = 0.0006

_REF_ITERATIONS = 45_000
_ECHO_ROUND_TRIPS = 10
_ECHO_BYTES = 256


def ref_kernel() -> float:
    """Run the fixed reference loop; returns its wall seconds.

    Integer arithmetic, a list index and a method call per iteration —
    interpreter work of the same kind as the code under test, touching
    no allocator-heavy or I/O path.
    """
    table = [1, 3, 5, 7, 11, 13, 17, 19]
    acc = 0
    start = perf_counter()
    for i in range(_REF_ITERATIONS):
        acc = (acc + table[i & 7] * i) & 0xFFFFFF
    elapsed = perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


class EchoKernel:
    """The second reference: round trips through stdlib asyncio streams
    over a socketpair, both ends in this process on a loop of its own.

    The loop above is pure interpreter; an op is also selector wake-ups,
    socket syscalls and ``run_until_complete``, whose cost swings with
    the host on its own schedule.  This kernel is made of exactly that
    and of nothing from ``src/``, so it moves with the machine and not
    with the code under test.
    """

    def __init__(self) -> None:
        self._loop = asyncio.new_event_loop()
        self._socks = socket.socketpair()
        self._message = bytes(_ECHO_BYTES)

        async def connect():
            near = await asyncio.open_connection(sock=self._socks[0])
            far = await asyncio.open_connection(sock=self._socks[1])
            return near + far

        (self._near_r, self._near_w, self._far_r,
         self._far_w) = self._loop.run_until_complete(connect())

    async def _round_trip(self) -> None:
        self._near_w.write(self._message)
        await self._near_w.drain()
        data = await self._far_r.readexactly(_ECHO_BYTES)
        self._far_w.write(data)
        await self._far_w.drain()
        await self._near_r.readexactly(_ECHO_BYTES)

    def __call__(self) -> float:
        run = self._loop.run_until_complete
        start = perf_counter()
        for _ in range(_ECHO_ROUND_TRIPS):
            run(self._round_trip())
        return perf_counter() - start

    def close(self) -> None:
        self._near_w.close()
        self._far_w.close()
        self._loop.run_until_complete(asyncio.sleep(0))
        self._loop.close()


class Reference:
    """How slow the machine is right now, relative to nominal: the
    geometric mean of the two kernels' times over their nominal times.

    Over an hour of one unchanged set of servers, dividing by the loop
    alone left ``ops_per_s_norm`` of successive 8 s windows up to 24 %
    apart; by this mean, up to 12 % (README, "Noise").
    """

    def __init__(self) -> None:
        self._echo = EchoKernel()
        #: Every loop-kernel time taken (``client.ref_kernel_ms``) and
        #: the wall seconds spent measuring (not the client's CPU time).
        self.loop_seconds: List[float] = []
        self.spent_seconds = 0.0

    def slowness(self) -> float:
        loop = ref_kernel()
        echo = self._echo()
        self.loop_seconds.append(loop)
        self.spent_seconds += loop + echo
        return math.sqrt((loop / REF_NOMINAL_S) * (echo / ECHO_NOMINAL_S))

    def steady_slowness(self) -> float:
        """The median of five readings, for normalising one long interval
        (a set-up): a single reading swings by +-15 %, more than the
        1.5 s set-up it would be dividing."""
        return statistics.median(self.slowness() for _ in range(5))

    def close(self) -> None:
        self._echo.close()


def normalised_costs(
    batch_seconds: Sequence[float],
    batch_ops: Sequence[int],
    slow_before: Sequence[float],
    slow_after: Sequence[float],
) -> List[float]:
    """Per batch: nominal seconds per op — wall seconds per op divided by
    the mean of the machine's slowness on either side of the batch."""
    return [
        seconds / ops / ((before + after) / 2.0)
        for seconds, ops, before, after
        in zip(batch_seconds, batch_ops, slow_before, slow_after)
    ]


def ops_per_s_norm(costs: Sequence[float]) -> float:
    """Ops per nominal second from per-batch normalised costs.

    The first quartile, not the median: a disturbance only ever adds
    time, and no in-process reference sees the kind that hits two
    processes trading messages.  Over 8 s windows of one unchanged
    server the quartile repeated 1.1 to 1.9 times better than the median
    on five workloads of six (README, "Noise").
    """
    return 1.0 / statistics.quantiles(costs, n=4)[0]


def normalised_seconds(seconds: float, slow_before: float, slow_after: float) -> float:
    """Wall seconds restated at the nominal machine speed."""
    return seconds / ((slow_before + slow_after) / 2.0)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence, ``0 < q <= 1``."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]

