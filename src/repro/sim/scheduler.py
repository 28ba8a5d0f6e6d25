"""Discrete-event scheduler: concurrent clients over the virtual clock.

Everything the paper's tables measure runs *sequentially* — one
operation at a time on :class:`repro.sim.clock.SimClock`.  That is the
right methodology for relative-cost claims, but no two requests ever
overlap, so nothing can be in flight when a fault strikes or queued
behind another request at a server.

This module adds the missing half: a priority-queue event loop over
virtual time on which simulated clients run as generator coroutines.
The execution model is **atomic-frame discrete-event simulation**:

* A client coroutine ``yield``\\ s directives — :func:`think` to idle for
  some virtual time, :func:`request` (or a bare callable) to perform one
  synchronous operation against the simulated system.

* When a request fires at virtual time *T*, the scheduler opens a clock
  *frame* at *T* (:meth:`SimClock.begin_frame`) and runs the operation
  to completion in ordinary synchronous Python.  Every charge the
  operation makes — invocation paths, disk transfers, fault-plane
  delays, queue waits — advances the frame-local clock, so the cost
  model and the fault plane see consistent, locally monotonic time.
  Closing the frame yields the operation's total virtual duration Δ;
  the coroutine is resumed (with the operation's return value, or its
  exception thrown in) at *T + Δ*.

* Contention between overlapping operations is carried by
  :class:`ServiceQueue` reservations on a node's server slots
  (:meth:`repro.ipc.node.Node.install_server_queue`): each admission
  reserves the earliest-free slot and charges the waiting time to
  ``server_queue_wait``, so queueing delay appears in both each
  request's latency and the category totals.  Nothing else contends:
  a CPU, a domain or a disk serves overlapping operations at once.

Determinism: events are ordered by ``(time, sequence-number)`` with
sequence numbers assigned in creation order, frames execute atomically,
and all randomness lives in seeded generators owned by the workload.  A
run is a pure function of (workload, seed, fault plan).

Approximation (documented, deliberate): because an operation's charges
happen atomically at its start time, a resource touched mid-operation is
reserved in event-start order rather than true arrival order, and a
fault-plane event may be applied from within a frame slightly before
tasks whose start time precedes the frame's *end* get to run.  Both
effects are deterministic and shrink with operation granularity; the
sequential calibration path never enters a frame and is byte-identical
to earlier revisions.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

__all__ = [
    "ServiceQueue",
    "Scheduler",
    "Task",
    "think",
    "request",
]


class ServiceQueue:
    """A FIFO service centre in virtual time: ``servers`` concurrent
    slots, earliest-free-slot reservation.

    ``admit`` models one request arriving now: it reserves the earliest
    slot to come free, charges the wait (time until that slot frees) to
    the queue's clock category, and occupies the slot for ``service_us``.
    With a single server and a backlog of *n* undrained reservations the
    wait is exactly *n × service_us* — the "queue depth × service time"
    model.  The *service* time itself is **not** charged here: it
    represents server-side work the client's operation charges inline;
    the queue only adds the waiting.

    All bookkeeping is pure virtual-time arithmetic — no wall clock, no
    randomness — so a workload replayed with the same seed reproduces
    identical waits.
    """

    __slots__ = ("clock", "servers", "category", "_free_at", "admitted",
                 "total_wait_us", "total_service_us", "peak_wait_us")

    def __init__(self, clock, servers: int = 1,
                 category: str = "queue_wait") -> None:
        if servers < 1:
            raise ValueError(f"servers must be >= 1, got {servers}")
        self.clock = clock
        self.servers = servers
        self.category = category
        #: Min-heap of per-slot free times.
        self._free_at: List[float] = [0.0] * servers
        self.admitted = 0
        self.total_wait_us = 0.0
        self.total_service_us = 0.0
        self.peak_wait_us = 0.0

    def admit(self, service_us: float) -> float:
        """Admit one request at the current (frame-local) virtual time;
        charge and return its queue wait in microseconds."""
        if service_us < 0:
            raise ValueError(f"negative service time: {service_us}")
        now = self.clock.now_us
        slot_free = heapq.heappop(self._free_at)
        start = slot_free if slot_free > now else now
        wait = start - now
        heapq.heappush(self._free_at, start + service_us)
        self.admitted += 1
        self.total_service_us += service_us
        if wait > 0.0:
            self.total_wait_us += wait
            if wait > self.peak_wait_us:
                self.peak_wait_us = wait
            self.clock.advance(wait, self.category)
        return wait

    def backlog_us(self) -> float:
        """Virtual time until the most-loaded slot comes free — how far
        behind offered load the centre currently is."""
        latest = max(self._free_at)
        now = self.clock.now_us
        return latest - now if latest > now else 0.0

    def reset(self) -> None:
        """Drop all reservations (e.g. after a crash wipes a server's
        request queue) and keep the cumulative statistics."""
        self._free_at = [0.0] * self.servers


class _Think:
    __slots__ = ("us",)

    def __init__(self, us: float) -> None:
        self.us = us


class _Request:
    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], Any]) -> None:
        self.fn = fn


def think(us: float) -> _Think:
    """Directive: idle for ``us`` of virtual time (request pacing),
    charged to ``client_think``."""
    return _Think(us)


def request(fn: Callable[[], Any]) -> _Request:
    """Directive: run ``fn()`` as one atomic operation at the task's
    current virtual time; the task resumes with its return value once
    the operation's charged virtual time has elapsed.  A bare callable
    yielded from a task means the same thing."""
    return _Request(fn)


class Task:
    """One simulated client: a generator coroutine driven by the
    scheduler.  ``result`` holds the generator's return value once
    ``done``; an exception that escapes the generator is re-raised from
    :meth:`Scheduler.run`."""

    __slots__ = ("name", "gen", "done", "result", "started_us",
                 "finished_us")

    def __init__(self, name: str,
                 gen: Generator[Any, Any, Any]) -> None:
        self.name = name
        self.gen = gen
        self.done = False
        self.result: Any = None
        self.started_us = 0.0
        self.finished_us = 0.0

    def __repr__(self) -> str:
        state = "done" if self.done else "live"
        return f"<Task {self.name!r} {state}>"


class Scheduler:
    """The event loop: a heap of ``(time, seq, task, payload)`` events
    executed in virtual-time order (ties broken by creation order, so
    runs are deterministic)."""

    __slots__ = ("world", "clock", "_heap", "_seq", "tasks", "operations")

    def __init__(self, world) -> None:
        self.world = world
        self.clock = world.clock
        self._heap: List[Tuple[float, int, Task, Tuple[str, Any]]] = []
        self._seq = 0
        self.tasks: List[Task] = []
        #: Total request operations executed (frames opened).
        self.operations = 0

    # --- task management ---------------------------------------------------
    def spawn(self, gen: Generator[Any, Any, Any],
              name: Optional[str] = None,
              at_us: Optional[float] = None) -> Task:
        """Register a client coroutine; it first runs at ``at_us``
        (default: the current virtual time)."""
        task = Task(name or f"task{len(self.tasks)}", gen)
        start = self.clock.now_us if at_us is None else at_us
        task.started_us = start
        self.tasks.append(task)
        self._post(start, task, ("resume", None))
        return task

    def _post(self, time_us: float, task: Task,
              payload: Tuple[str, Any]) -> None:
        heapq.heappush(self._heap, (time_us, self._seq, task, payload))
        self._seq += 1

    # --- the loop ----------------------------------------------------------
    def run(self, until_us: Optional[float] = None) -> None:
        """Process events in time order until the heap drains (or the
        next event lies beyond ``until_us``).  Global clock time follows
        event timestamps; fault-plane events whose time has arrived are
        applied between frames as time passes."""
        clock = self.clock
        network = self.world.network
        while self._heap:
            time_us, _, task, payload = self._heap[0]
            if until_us is not None and time_us > until_us:
                break
            heapq.heappop(self._heap)
            if time_us > clock.now_us:
                clock.seek(time_us)
            if network.fault_plane is not None:
                network.fault_plane.poll()
            self._step(time_us, task, payload)

    def run_all(self) -> List[Task]:
        """Run to quiescence and return the spawned tasks."""
        self.run()
        return self.tasks

    def _step(self, now_us: float, task: Task,
              payload: Tuple[str, Any]) -> None:
        kind, value = payload
        try:
            if kind == "throw":
                directive = task.gen.throw(value)
            else:
                directive = task.gen.send(value)
        except StopIteration as stop:
            task.done = True
            task.result = stop.value
            task.finished_us = now_us
            return
        if isinstance(directive, _Think):
            self.clock.begin_frame(now_us)
            try:
                self.clock.advance(directive.us, "client_think")
            finally:
                elapsed = self.clock.end_frame()
            self._post(now_us + elapsed, task, ("resume", None))
            return
        if callable(directive):
            directive = _Request(directive)
        if isinstance(directive, _Request):
            self.operations += 1
            self.clock.begin_frame(now_us)
            try:
                result: Tuple[str, Any] = ("resume", directive.fn())
            except Exception as exc:  # rethrown into the task at T + Δ
                result = ("throw", exc)
            finally:
                elapsed = self.clock.end_frame()
            self._post(now_us + elapsed, task, result)
            return
        raise TypeError(
            f"task {task.name!r} yielded {directive!r}; expected think(), "
            f"request(), or a callable"
        )
