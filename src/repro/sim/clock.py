"""Deterministic virtual clock.

All latencies in the reproduction — CPU work, cross-domain calls, network
transfers, disk I/O — are charged to a :class:`SimClock` instead of being
measured in wall time.  This replaces the paper's SPARCstation 10 testbed
(see DESIGN.md section 2): the phenomena the paper reports are *relative*
costs of invocation paths, which a charged clock reproduces exactly and
deterministically.

Times are in microseconds, the unit the paper's Table 3 uses.

Virtual time runs one way: one operation runs to completion before the
next starts, ``advance`` moves ``now_us`` forward, and elapsed time
equals charged time.  Everything the paper's tables measure runs this
way.
"""

from __future__ import annotations

from typing import Dict, Optional


class _Account:
    """One category's running total and charge count.  ``total`` starts
    at int 0, so after the first charge it equals that charge in type as
    well as value: a category charged only ints totals an int."""

    __slots__ = ("total", "count")

    def __init__(self) -> None:
        self.total = 0
        self.count = 0


class SimClock:
    """A monotonically advancing virtual clock with charge accounting.

    Besides the current time, the clock keeps per-category totals (e.g.
    how much virtual time went to ``disk`` vs ``cross_domain``), which the
    benchmark harness uses to attribute costs the way the paper's
    discussion does ("the disk overhead is much higher than the cross
    domain call overhead").  Each category has one :class:`_Account`,
    opened by :meth:`account` — when a :class:`~repro.sim.costs.Charger`
    binds its fixed charges, or on the category's first ``advance``.
    """

    __slots__ = ("_now_us", "_accounts")

    def __init__(self) -> None:
        self._now_us = 0.0
        #: Category -> account, in the order they were opened.  An
        #: account never charged (count 0) is listed nowhere, which is
        #: what lets :class:`StopWatch` tell "charged 0.0" (a zero-delta
        #: charge counts) from "never charged".
        self._accounts: Dict[str, _Account] = {}

    @property
    def now_us(self) -> float:
        """Current virtual time in microseconds."""
        return self._now_us

    def account(self, category: str) -> _Account:
        """The account ``category`` is charged to, opened on first use."""
        return self._accounts.setdefault(category, _Account())

    def advance(self, delta_us: float, category: str = "cpu") -> None:
        """Advance virtual time by ``delta_us``, attributed to ``category``.

        A negative or NaN charge is a programming error and raises
        ``ValueError`` with the clock untouched (``not >= 0`` is the test
        NaN fails; ``< 0`` would let it poison every later reading).

        Every charge whose cost depends on its arguments comes here (a
        toy macro workload makes ~2k), so the body allocates nothing:
        one dict lookup finds the category's account.
        """
        if not delta_us >= 0:
            raise ValueError(f"time charge must be >= 0: {delta_us}")
        try:
            account = self._accounts[category]
        except KeyError:
            account = self.account(category)
        self._now_us += delta_us
        account.total += delta_us
        account.count += 1

    def charge(self, cost_us: float, account: _Account) -> None:
        """Charge ``cost_us`` to ``account``: ``advance`` for a cost that
        was checked when it was bound (see
        :class:`~repro.sim.costs.Charger`), minus the check and the
        lookup."""
        self._now_us += cost_us
        account.total += cost_us
        account.count += 1

    def charged(self, category: str) -> float:
        """Total virtual time charged to ``category`` since construction."""
        return self.categories().get(category, 0.0)

    def charge_count(self, category: str) -> int:
        """How many times ``category`` was explicitly charged (zero-delta
        charges count)."""
        return self.charge_counts().get(category, 0)

    def categories(self) -> Dict[str, float]:
        """Snapshot of the per-category totals of every category charged."""
        return {c: a.total for c, a in self._accounts.items() if a.count}

    def charge_counts(self) -> Dict[str, int]:
        """Snapshot of the per-category charge counts of every category
        charged."""
        return {c: a.count for c, a in self._accounts.items() if a.count}


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
