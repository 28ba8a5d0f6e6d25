"""Unit tests for the virtual clock and stopwatch."""

import pytest

from repro.sim.clock import SimClock, StopWatch


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_us == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.advance(2.5)
        assert clock.now_us == 12.5

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        assert clock.now_us == 0.0

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now_us == 0.0

    def test_category_attribution(self):
        clock = SimClock()
        clock.advance(5, "disk")
        clock.advance(3, "disk")
        clock.advance(2, "cpu")
        assert clock.charged("disk") == 8
        assert clock.charged("cpu") == 2
        assert clock.charged("network") == 0

    def test_categories_snapshot_is_copy(self):
        clock = SimClock()
        clock.advance(1, "cpu")
        snapshot = clock.categories()
        snapshot["cpu"] = 999
        assert clock.charged("cpu") == 1

    def test_charge_counts(self):
        clock = SimClock()
        clock.advance(5, "disk")
        clock.advance(0.0, "disk")
        clock.advance(1, "cpu")
        assert clock.charge_count("disk") == 2  # zero-delta counts
        assert clock.charge_count("cpu") == 1
        assert clock.charge_count("network") == 0
        assert clock.charge_counts() == {"disk": 2, "cpu": 1}

    def test_charge_counts_snapshot_is_copy(self):
        clock = SimClock()
        clock.advance(1, "cpu")
        snapshot = clock.charge_counts()
        snapshot["cpu"] = 999
        assert clock.charge_count("cpu") == 1


class TestStopWatch:
    def test_measures_elapsed(self):
        clock = SimClock()
        clock.advance(100)
        watch = StopWatch(clock)
        with watch:
            clock.advance(42)
        assert watch.elapsed_us == 42

    def test_breakdown_only_counts_window(self):
        clock = SimClock()
        clock.advance(100, "disk")
        with StopWatch(clock) as watch:
            clock.advance(7, "disk")
            clock.advance(3, "cpu")
        assert watch.breakdown == {"disk": 7, "cpu": 3}

    def test_empty_window(self):
        clock = SimClock()
        with StopWatch(clock) as watch:
            pass
        assert watch.elapsed_us == 0
        assert watch.breakdown == {}

    def test_nested_watches(self):
        clock = SimClock()
        outer = StopWatch(clock)
        inner = StopWatch(clock)
        with outer:
            clock.advance(5)
            with inner:
                clock.advance(10)
        assert inner.elapsed_us == 10
        assert outer.elapsed_us == 15

    def test_zero_delta_charge_appears_in_breakdown(self):
        # A category explicitly charged 0.0 inside the window (e.g. a
        # zero-byte memcpy) must appear with value 0.0; earlier
        # revisions silently dropped it.
        clock = SimClock()
        with StopWatch(clock) as watch:
            clock.advance(0.0, "memcpy")
            clock.advance(3, "cpu")
        assert watch.breakdown == {"memcpy": 0.0, "cpu": 3}

    def test_uncharged_category_still_omitted(self):
        clock = SimClock()
        clock.advance(100, "disk")  # before the window
        with StopWatch(clock) as watch:
            clock.advance(1, "cpu")
        assert "disk" not in watch.breakdown

    def test_nested_regions_sharing_one_clock_breakdowns(self):
        # Regression test: nested StopWatch regions over one clock must
        # each attribute exactly the charges made inside their own
        # window — including a zero-delta charge in the inner region —
        # without the inner snapshot disturbing the outer one.
        clock = SimClock()
        clock.advance(50, "disk")  # pre-existing totals
        outer = StopWatch(clock)
        inner = StopWatch(clock)
        with outer:
            clock.advance(5, "cpu")
            with inner:
                clock.advance(10, "disk")
                clock.advance(0.0, "flush")
            clock.advance(2, "cpu")
        assert inner.breakdown == {"disk": 10, "flush": 0.0}
        assert outer.breakdown == {"cpu": 7, "disk": 10, "flush": 0.0}
        assert outer.elapsed_us == 17
