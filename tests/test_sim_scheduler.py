"""Unit tests for the discrete-event scheduler and service queues."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.scheduler import Scheduler, ServiceQueue, request, think
from repro.world import World


class TestServiceQueue:
    def test_empty_queue_no_wait(self):
        clock = SimClock()
        queue = ServiceQueue(clock, servers=1, category="q")
        assert queue.admit(100.0) == 0.0
        assert clock.now_us == 0.0
        assert clock.charged("q") == 0.0

    def test_backlog_charges_queue_depth(self):
        clock = SimClock()
        queue = ServiceQueue(clock, servers=1, category="q")
        assert queue.admit(100.0) == 0.0  # t=0, slot busy until 100
        # Charging the wait advances the caller's clock, so each later
        # arrival lands where the previous reservation ends.
        assert queue.admit(100.0) == 100.0  # arrives 0, starts 100
        assert queue.admit(100.0) == 100.0  # arrives 100, starts 200
        assert clock.charged("q") == 200.0
        assert queue.total_wait_us == 200.0
        assert queue.peak_wait_us == 100.0
        assert queue.admitted == 3

    def test_simultaneous_arrivals_pay_depth_times_service(self):
        # Under the scheduler each admission happens inside its own
        # frame pinned at the arrival time, so three arrivals at t=0
        # wait 0, 1x, and 2x the service time.
        clock = SimClock()
        queue = ServiceQueue(clock, servers=1, category="q")
        waits = []
        for _ in range(3):
            clock.begin_frame(0.0)
            waits.append(queue.admit(100.0))
            clock.end_frame()
        assert waits == [0.0, 100.0, 200.0]
        assert queue.peak_wait_us == 200.0

    def test_multiple_servers_absorb_concurrency(self):
        clock = SimClock()
        queue = ServiceQueue(clock, servers=2, category="q")
        assert queue.admit(100.0) == 0.0
        assert queue.admit(100.0) == 0.0  # second slot
        wait = queue.admit(100.0)  # must wait for a slot
        assert wait > 0.0

    def test_slot_frees_after_service(self):
        clock = SimClock()
        queue = ServiceQueue(clock, servers=1, category="q")
        queue.admit(50.0)
        clock.advance(60.0, "cpu")  # past the reservation
        assert queue.backlog_us() == 0.0
        assert queue.admit(50.0) == 0.0

    def test_reset_drops_reservations_keeps_stats(self):
        clock = SimClock()
        queue = ServiceQueue(clock, servers=1, category="q")
        queue.admit(100.0)
        queue.admit(100.0)
        assert queue.backlog_us() > 0.0
        queue.reset()
        assert queue.backlog_us() == 0.0
        assert queue.admitted == 2  # cumulative stats survive
        assert queue.admit(100.0) == 0.0  # fresh slot, no wait

    def test_stats_shape(self):
        clock = SimClock()
        queue = ServiceQueue(clock, servers=3, category="q")
        queue.admit(10.0)
        assert queue.servers == 3
        assert queue.admitted == 1
        assert queue.total_service_us == 10.0

    def test_rejects_bad_arguments(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            ServiceQueue(clock, servers=0)
        queue = ServiceQueue(clock)
        with pytest.raises(ValueError):
            queue.admit(-1.0)


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

    def test_contention_through_service_queue(self):
        # Two clients hit a single-slot resource at the same instant:
        # the second pays one full service time of queueing delay.
        world = World()
        scheduler = world.scheduler()
        queue = ServiceQueue(world.clock, servers=1, category="q")
        finish = {}

        def client(name):
            yield request(lambda: queue.admit(100.0))
            finish[name] = world.clock.now_us

        scheduler.spawn(client("first"), name="first")
        scheduler.spawn(client("second"), name="second")
        scheduler.run()
        assert finish["first"] == 0.0  # no wait; service not charged here
        assert finish["second"] == 100.0  # waited out the first reservation
        assert world.clock.charged("q") == 100.0


class TestSchedulerDeterminism:
    @staticmethod
    def _run_once(seed):
        import random

        world = World()
        scheduler = world.scheduler()
        queue = ServiceQueue(world.clock, servers=1, category="q")
        trace = []

        def client(cid):
            rng = random.Random(seed * 1_000_003 + cid)
            for _ in range(3):
                yield think(rng.expovariate(1 / 100.0))
                yield request(lambda: queue.admit(25.0))
                trace.append((cid, world.clock.now_us))

        for cid in range(8):
            scheduler.spawn(client(cid), name=f"c{cid}")
        scheduler.run()
        return trace, world.clock.now_us, world.clock.categories()

    def test_same_seed_same_run(self):
        assert self._run_once(7) == self._run_once(7)

    def test_different_seed_different_run(self):
        assert self._run_once(7) != self._run_once(8)


class TestClockSchedulerIntegration:
    def test_sequential_path_untouched_by_import(self):
        # Importing the scheduler machinery must not perturb a
        # sequential world: no frames, no queues, plain advances.
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
