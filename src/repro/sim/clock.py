"""Deterministic virtual clock.

All latencies in the reproduction — CPU work, cross-domain calls, network
transfers, disk I/O — are charged to a :class:`SimClock` instead of being
measured in wall time.  This replaces the paper's SPARCstation 10 testbed
(see DESIGN.md section 2): the phenomena the paper reports are *relative*
costs of invocation paths, which a charged clock reproduces exactly and
deterministically.

Times are in microseconds, the unit the paper's Table 3 uses.

Two execution modes share this clock:

* **Sequential** (the calibration mode): one operation runs to
  completion before the next starts, ``advance`` moves ``now_us``
  forward, and elapsed time equals charged time.  Everything the paper's
  tables measure runs this way, byte-identically to earlier revisions.

* **Concurrent**: the discrete-event scheduler in
  :mod:`repro.sim.scheduler` executes each simulated client's operation
  atomically inside a clock *frame*.  ``begin_frame`` pins ``now_us`` to
  the task's virtual start time; charges made while the frame is open
  advance ``now_us`` locally (so cost models, fault planes, and server
  slots see a consistent in-operation time); ``end_frame`` returns the
  frame's elapsed virtual time and restores ``now_us`` to the
  scheduler's global event time.  Category totals accumulate across all
  frames, so under concurrency they read as *busy time summed over
  clients* — they can legitimately exceed the makespan.
"""

from __future__ import annotations

from typing import Dict, Optional


class SimClock:
    """A monotonically advancing virtual clock with charge accounting.

    Besides the current time, the clock keeps per-category totals (e.g.
    how much virtual time went to ``disk`` vs ``cross_domain``), which the
    benchmark harness uses to attribute costs the way the paper's
    discussion does ("the disk overhead is much higher than the cross
    domain call overhead").
    """

    __slots__ = ("_now_us", "_by_category", "_charges",
                 "_frame_start", "_frame_saved")

    def __init__(self) -> None:
        self._now_us = 0.0
        self._by_category: Dict[str, float] = {}
        #: Per-category charge *counts* — how many times each category
        #: was explicitly charged (including zero-delta charges), which
        #: is what lets :class:`StopWatch` distinguish "charged 0.0"
        #: from "never charged".
        self._charges: Dict[str, int] = {}
        #: Open speculative frame (see module docstring); None outside
        #: the discrete-event scheduler.
        self._frame_start: Optional[float] = None
        self._frame_saved = 0.0

    @property
    def now_us(self) -> float:
        """Current virtual time in microseconds.  Inside an open frame
        this is the frame-local time (start + charges so far)."""
        return self._now_us

    def advance(self, delta_us: float, category: str = "cpu") -> None:
        """Advance virtual time by ``delta_us``, attributed to ``category``.

        A negative or NaN charge is a programming error and raises
        ``ValueError`` with the clock untouched (``not >= 0`` is the test
        NaN fails; ``< 0`` would let it poison every later reading).

        This is the hottest function in the simulator (a toy macro
        workload charges it ~2k times), so the body avoids per-call
        allocation.  Charge sites should pass interned category strings
        (see :mod:`repro.sim.costs`) so the dict updates hash
        pre-interned keys.
        """
        if not delta_us >= 0:
            raise ValueError(f"time charge must be >= 0: {delta_us}")
        self._now_us += delta_us
        try:
            self._by_category[category] += delta_us
        except KeyError:
            self._by_category[category] = delta_us
        try:
            self._charges[category] += 1
        except KeyError:
            self._charges[category] = 1

    def charged(self, category: str) -> float:
        """Total virtual time charged to ``category`` since construction."""
        return self._by_category.get(category, 0.0)

    def charge_count(self, category: str) -> int:
        """How many times ``category`` was explicitly charged (zero-delta
        charges count)."""
        return self._charges.get(category, 0)

    def categories(self) -> Dict[str, float]:
        """Snapshot of all per-category totals."""
        return dict(self._by_category)

    def charge_counts(self) -> Dict[str, int]:
        """Snapshot of all per-category charge counts."""
        return dict(self._charges)

    # --- scheduler integration (see repro.sim.scheduler) -------------------
    def seek(self, to_us: float) -> None:
        """Jump global time forward to ``to_us`` without charging any
        category — the discrete-event scheduler uses this to move to the
        next event's timestamp.  Rejects moving backwards and may not be
        called while a frame is open."""
        if self._frame_start is not None:
            raise RuntimeError("seek inside an open frame")
        if to_us < self._now_us:
            raise ValueError(
                f"seek backwards: {to_us} < {self._now_us}"
            )
        self._now_us = to_us

    def begin_frame(self, at_us: float) -> None:
        """Open a speculative task frame at virtual time ``at_us``.

        While the frame is open, ``now_us`` runs from ``at_us`` and
        ``advance`` moves it locally; the pre-frame global time is saved
        and restored by :meth:`end_frame`.  Frames do not nest — the
        scheduler executes exactly one task operation at a time.
        """
        if self._frame_start is not None:
            raise RuntimeError("frame already open")
        self._frame_start = at_us
        self._frame_saved = self._now_us
        self._now_us = at_us

    def end_frame(self) -> float:
        """Close the open frame: restore global time and return the
        frame's elapsed virtual time (the operation's service demand)."""
        if self._frame_start is None:
            raise RuntimeError("no open frame")
        elapsed = self._now_us - self._frame_start
        self._now_us = self._frame_saved
        self._frame_start = None
        return elapsed

    @property
    def in_frame(self) -> bool:
        return self._frame_start is not None


class StopWatch:
    """Measures elapsed virtual time over a region, with a category
    breakdown.  The bench harness wraps each measured operation in one.

    A category appears in ``breakdown`` iff it was *explicitly charged*
    inside the region — including charges whose delta is exactly 0.0
    (e.g. a zero-byte memcpy), which earlier revisions silently dropped.
    Categories never charged in the window are still omitted.

    >>> clock = SimClock()
    >>> watch = StopWatch(clock)
    >>> with watch:
    ...     clock.advance(10, "cpu")
    ...     clock.advance(5, "disk")
    >>> watch.elapsed_us
    15.0
    >>> watch.breakdown["disk"]
    5.0
    """

    __slots__ = ("_clock", "_start", "_start_categories", "_start_counts",
                 "elapsed_us", "breakdown")

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        self._start: Optional[float] = None
        self._start_categories: Dict[str, float] = {}
        self._start_counts: Dict[str, int] = {}
        self.elapsed_us = 0.0
        self.breakdown: Dict[str, float] = {}

    def __enter__(self) -> "StopWatch":
        self._start = self._clock.now_us
        self._start_categories = self._clock.categories()
        self._start_counts = self._clock.charge_counts()
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._start is not None
        self.elapsed_us = self._clock.now_us - self._start
        end = self._clock.categories()
        start_counts = self._start_counts
        self.breakdown = {
            cat: end.get(cat, 0.0) - self._start_categories.get(cat, 0.0)
            for cat, count in self._clock.charge_counts().items()
            if count - start_counts.get(cat, 0) > 0
        }
