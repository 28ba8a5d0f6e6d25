"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan
from repro.sim.scheduler import request, think
from repro.world import World


class TestScheduler:
    def test_think_advances_task_time(self):
        world = World()
        scheduler = world.scheduler()
        seen = []

        def client():
            yield think(100.0)
            seen.append(world.clock.now_us)

        scheduler.spawn(client())
        scheduler.run()
        assert seen == [100.0]
        assert world.clock.charged("client_think") == 100.0

    def test_request_result_delivered(self):
        world = World()
        scheduler = world.scheduler()
        results = []

        def op():
            world.clock.advance(42.0, "cpu")
            return "payload"

        def client():
            value = yield request(op)
            results.append((value, world.clock.now_us))

        scheduler.spawn(client())
        scheduler.run()
        assert results == [("payload", 42.0)]

    def test_bare_callable_is_a_request(self):
        world = World()
        scheduler = world.scheduler()
        results = []

        def client():
            value = yield (lambda: "bare")
            results.append(value)

        scheduler.spawn(client())
        scheduler.run()
        assert results == ["bare"]

    def test_overlapping_clients_interleave(self):
        # Two clients think different amounts, then run requests; the
        # scheduler must execute events in virtual-time order, not
        # spawn order.
        world = World()
        scheduler = world.scheduler()
        order = []

        def client(name, think_us):
            yield think(think_us)
            yield request(lambda: order.append((name, world.clock.now_us)))

        scheduler.spawn(client("slow", 200.0), name="slow")
        scheduler.spawn(client("fast", 50.0), name="fast")
        scheduler.run()
        assert order == [("fast", 50.0), ("slow", 200.0)]

    def test_ties_broken_by_spawn_order(self):
        world = World()
        scheduler = world.scheduler()
        order = []

        def client(name):
            yield request(lambda: order.append(name))

        for name in ("a", "b", "c"):
            scheduler.spawn(client(name), name=name)
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_exception_rethrown_into_task(self):
        world = World()
        scheduler = world.scheduler()
        caught = []

        def op():
            world.clock.advance(10.0, "cpu")
            raise RuntimeError("boom")

        def client():
            try:
                yield request(op)
            except RuntimeError as exc:
                caught.append((str(exc), world.clock.now_us))

        scheduler.spawn(client())
        scheduler.run()
        # The exception arrives at T + charged time, like a result.
        assert caught == [("boom", 10.0)]

    def test_frame_restored_after_request(self):
        world = World()
        scheduler = world.scheduler()

        def client():
            yield request(lambda: world.clock.advance(5.0, "cpu"))

        scheduler.spawn(client())
        scheduler.run()
        assert not world.clock.in_frame

    def test_task_result_and_timestamps(self):
        world = World()
        scheduler = world.scheduler()

        def client():
            yield think(30.0)
            return "done"

        task = scheduler.spawn(client(), name="c0")
        scheduler.run()
        assert task.done
        assert task.result == "done"
        assert task.started_us == 0.0
        assert task.finished_us == 30.0

    def test_run_all_returns_the_tasks_and_repr_says_their_state(self):
        world = World()
        scheduler = world.scheduler()

        def client():
            yield think(10.0)

        task = scheduler.spawn(client(), name="c0")
        assert repr(task) == "<Task 'c0' live>"
        assert scheduler.run_all() == [task]
        assert repr(task) == "<Task 'c0' done>"

    def test_run_until_leaves_future_events(self):
        world = World()
        scheduler = world.scheduler()
        seen = []

        def client():
            yield think(1000.0)
            seen.append("late")

        scheduler.spawn(client())
        scheduler.run(until_us=500.0)
        assert seen == []
        scheduler.run()
        assert seen == ["late"]

    def test_spawn_at_us(self):
        world = World()
        scheduler = world.scheduler()
        seen = []

        def client():
            seen.append(world.clock.now_us)
            yield think(1.0)

        scheduler.spawn(client(), at_us=250.0)
        scheduler.run()
        assert seen == [250.0]

    def test_bad_directive_rejected(self):
        world = World()
        scheduler = world.scheduler()

        def client():
            yield 42  # not a directive

        scheduler.spawn(client())
        with pytest.raises(TypeError):
            scheduler.run()

    def test_operations_counter(self):
        world = World()
        scheduler = world.scheduler()

        def client():
            yield request(lambda: None)
            yield think(1.0)
            yield request(lambda: None)

        scheduler.spawn(client())
        scheduler.run()
        assert scheduler.operations == 2


class TestSchedulerDeterminism:
    @staticmethod
    def _run_once(seed):
        import random

        world = World()
        scheduler = world.scheduler()
        trace = []

        def client(cid):
            rng = random.Random(seed * 1_000_003 + cid)
            for _ in range(3):
                yield think(rng.expovariate(1 / 100.0))
                yield request(lambda: world.clock.advance(25.0, "cpu"))
                trace.append((cid, world.clock.now_us))

        for cid in range(8):
            scheduler.spawn(client(cid), name=f"c{cid}")
        scheduler.run()
        return trace, world.clock.now_us, world.clock.categories()

    def test_same_seed_same_run(self):
        assert self._run_once(7) == self._run_once(7)

    def test_different_seed_different_run(self):
        assert self._run_once(7) != self._run_once(8)


class TestFaultPlanInFrames:
    def test_a_delay_lengthens_only_the_request_that_sends(self):
        # The plan's link effect fires inside the sending request's
        # frame: ``a`` sends at 0 and pays the 1000us delay before its
        # 2000us round trip; ``b`` sends at 100 after the plan's one
        # delay is spent, so it finishes first.
        world = World()
        src, dst = world.create_node("src"), world.create_node("dst")
        world.install_fault_plan(
            FaultPlan().delay("src", "dst", at_us=0.0, delay_us=1_000.0)
        )
        scheduler = world.scheduler()
        finish = {}

        def client(name, think_us):
            yield think(think_us)
            yield request(lambda: world.network.transfer(src, dst, 0))
            finish[name] = world.clock.now_us

        scheduler.spawn(client("a", 0.0), name="a")
        scheduler.spawn(client("b", 100.0), name="b")
        scheduler.run()
        assert finish == {"b": 2_100.0, "a": 3_000.0}
        assert list(finish) == ["b", "a"]
        assert world.clock.charged("network_fault_delay") == 1_000.0
        assert world.counters.get("faults.delayed") == 1


class TestClockSchedulerIntegration:
    def test_sequential_path_untouched_by_import(self):
        # Importing the scheduler machinery must not perturb a
        # sequential world: no frames, plain advances.
        world = World()
        world.clock.advance(10.0, "cpu")
        assert world.clock.now_us == 10.0
        assert not world.clock.in_frame

    def test_seek_moves_global_time(self):
        clock = SimClock()
        clock.seek(500.0)
        assert clock.now_us == 500.0
        assert clock.categories() == {}  # seek charges nothing

    def test_seek_backwards_rejected(self):
        clock = SimClock()
        clock.seek(100.0)
        with pytest.raises(ValueError):
            clock.seek(50.0)

    def test_seek_inside_frame_rejected(self):
        clock = SimClock()
        clock.begin_frame(0.0)
        with pytest.raises(RuntimeError):
            clock.seek(10.0)
        clock.end_frame()

    def test_frame_charges_stay_in_categories(self):
        clock = SimClock()
        clock.seek(1000.0)
        clock.begin_frame(200.0)
        clock.advance(30.0, "disk")
        assert clock.now_us == 230.0  # frame-local time
        elapsed = clock.end_frame()
        assert elapsed == 30.0
        assert clock.now_us == 1000.0  # global time restored
        assert clock.charged("disk") == 30.0  # totals accumulate

    def test_frames_do_not_nest(self):
        clock = SimClock()
        clock.begin_frame(0.0)
        with pytest.raises(RuntimeError):
            clock.begin_frame(1.0)
        clock.end_frame()
        with pytest.raises(RuntimeError):
            clock.end_frame()

    def test_world_scheduler_is_lazy_singleton(self):
        world = World()
        assert world.scheduler() is world.scheduler()
