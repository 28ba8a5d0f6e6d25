"""Deterministic, clock-driven fault injection.

The paper's stacks span domains and machines — DFS coherency channels,
remote pager/cache channels, cross-node naming — and a production system
must survive the failures those links and machines suffer.  This module
is the *fault plane*: a scripted schedule of failures applied against
the virtual clock, so any test or benchmark can say "node B crashes at
t=500us and heals at t=2000us" and get the exact same run every time.

Two halves:

* :class:`FaultPlan` — the pure schedule.  Built by tests/benchmarks
  with :meth:`~FaultPlan.crash`, :meth:`~FaultPlan.partition`,
  :meth:`~FaultPlan.drop`, :meth:`~FaultPlan.delay`,
  :meth:`~FaultPlan.duplicate` and the probabilistic
  :meth:`~FaultPlan.drop_probability` (seeded RNG — the same seed
  always drops the same messages).  A plan is inert data; it touches
  nothing until installed.

* :class:`FaultPlane` — the runtime, installed with
  :meth:`repro.world.World.install_fault_plan`.  The network polls it
  at every send: events whose time has arrived are applied in schedule
  order (crash/recover via :meth:`repro.ipc.node.Node.crash` /
  :meth:`~repro.ipc.node.Node.recover`, partitions via the network's
  own partition set), then per-link effects (drop / delay / duplicate)
  are consulted for the message at hand.

Determinism contract: events are applied only inside ``poll`` — which
runs at message-send time — and ``random.Random(seed)`` drives every
probabilistic choice, so a run is a pure function of (plan, workload).
A world with no plane installed behaves byte-for-byte as before; all
fault machinery is opt-in.

Telemetry: every applied event counts under ``faults.*``
(``faults.crashes``, ``faults.recoveries``, ``faults.partitions``,
``faults.heals``, ``faults.dropped``, ``faults.delayed``,
``faults.duplicated``) so a report can render what the plan actually
did to the run.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Tuple

from repro.errors import MessageDroppedError


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, applied when the virtual clock reaches
    ``time_us``.  ``kind`` is one of ``crash``, ``recover``,
    ``partition``, ``heal``, ``drop``, ``delay``, ``duplicate``,
    ``drop_probability``; ``a``/``b`` name nodes (``b`` unused for
    node-scoped kinds)."""

    time_us: float
    kind: str
    a: str
    b: str = ""
    count: int = 1
    delay_us: float = 0.0
    probability: float = 0.0
    until_us: Optional[float] = None


class FaultPlan:
    """A deterministic schedule of failures (see module docstring).

    All times are virtual microseconds.  Convenience pairings —
    ``crash(..., recover_at_us=...)`` and ``partition(...,
    heal_at_us=...)`` — schedule the healing event too, which keeps
    "eventually heals" schedules (the convergence property tests) easy
    to express.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.events: List[FaultEvent] = []

    def _add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    # --- machine faults ----------------------------------------------------
    def crash(
        self, node: str, at_us: float, recover_at_us: Optional[float] = None
    ) -> "FaultPlan":
        """Crash ``node`` at ``at_us``: it loses its volatile server
        state (registered crash listeners fire) and every message to or
        from it raises :class:`~repro.errors.NodeCrashedError` until it
        recovers (epoch bump)."""
        self._add(FaultEvent(at_us, "crash", node))
        if recover_at_us is not None:
            self.recover(node, recover_at_us)
        return self

    def recover(self, node: str, at_us: float) -> "FaultPlan":
        return self._add(FaultEvent(at_us, "recover", node))

    # --- link faults -------------------------------------------------------
    def partition(
        self, a: str, b: str, at_us: float, heal_at_us: Optional[float] = None
    ) -> "FaultPlan":
        """Cut the ``a``–``b`` link (both directions) at ``at_us``."""
        self._add(FaultEvent(at_us, "partition", a, b))
        if heal_at_us is not None:
            self.heal(a, b, heal_at_us)
        return self

    def heal(self, a: str, b: str, at_us: float) -> "FaultPlan":
        return self._add(FaultEvent(at_us, "heal", a, b))

    def drop(self, src: str, dst: str, at_us: float, count: int = 1) -> "FaultPlan":
        """Drop the next ``count`` messages sent ``src`` -> ``dst`` at or
        after ``at_us``."""
        return self._add(FaultEvent(at_us, "drop", src, dst, count=count))

    def delay(
        self, src: str, dst: str, at_us: float, delay_us: float, count: int = 1
    ) -> "FaultPlan":
        """Add ``delay_us`` of extra latency to the next ``count``
        messages sent ``src`` -> ``dst`` at or after ``at_us``."""
        return self._add(
            FaultEvent(at_us, "delay", src, dst, count=count, delay_us=delay_us)
        )

    def duplicate(
        self, src: str, dst: str, at_us: float, count: int = 1
    ) -> "FaultPlan":
        """Duplicate the next ``count`` messages sent ``src`` -> ``dst``
        at or after ``at_us`` (the copy is charged like a real send)."""
        return self._add(FaultEvent(at_us, "duplicate", src, dst, count=count))

    def drop_probability(
        self,
        src: str,
        dst: str,
        probability: float,
        at_us: float = 0.0,
        until_us: Optional[float] = None,
    ) -> "FaultPlan":
        """Probabilistic mode: each ``src`` -> ``dst`` message in
        ``[at_us, until_us)`` is dropped with ``probability``, decided
        by the plan's seeded RNG."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range: {probability}")
        return self._add(
            FaultEvent(
                at_us,
                "drop_probability",
                src,
                dst,
                probability=probability,
                until_us=until_us,
            )
        )

    def sorted_events(self) -> List[FaultEvent]:
        """Events in application order: by time, ties by insertion."""
        return [
            event
            for _, event in sorted(
                enumerate(self.events),
                key=lambda pair: (pair[1].time_us, pair[0]),
            )
        ]


@dataclasses.dataclass
class _LinkEffects:
    """Pending per-link (src, dst) effects installed by applied events."""

    drops: int = 0
    delays: List[Tuple[float, int]] = dataclasses.field(default_factory=list)
    duplicates: int = 0
    #: Active probabilistic drop windows: (probability, until_us or None).
    drop_windows: List[Tuple[float, Optional[float]]] = dataclasses.field(
        default_factory=list
    )


class FaultPlane:
    """The installed fault plane: applies a :class:`FaultPlan` against a
    world's clock, network, and nodes.  Created by
    :meth:`repro.world.World.install_fault_plan`."""

    def __init__(self, world, plan: FaultPlan) -> None:
        self.world = world
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self._pending: List[FaultEvent] = plan.sorted_events()
        self._next = 0
        self._links: Dict[Tuple[str, str], _LinkEffects] = {}
        #: Applied (kind, time_us, a, b) tuples, for tests and reports.
        self.applied: List[Tuple[str, float, str, str]] = []

    # --- event application -------------------------------------------------
    def _link(self, src: str, dst: str) -> _LinkEffects:
        effects = self._links.get((src, dst))
        if effects is None:
            effects = _LinkEffects()
            self._links[(src, dst)] = effects
        return effects

    def poll(self) -> None:
        """Apply every scheduled event whose time has arrived.  Called
        by the network on each send; may be called any time."""
        now = self.world.clock.now_us
        while self._next < len(self._pending):
            event = self._pending[self._next]
            if event.time_us > now:
                break
            self._next += 1
            self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        world = self.world
        counters = world.counters
        self.applied.append((event.kind, event.time_us, event.a, event.b))
        if event.kind == "crash":
            world.nodes[event.a].crash()
            counters.inc("faults.crashes")
        elif event.kind == "recover":
            world.nodes[event.a].recover()
            counters.inc("faults.recoveries")
        elif event.kind == "partition":
            world.network.partition(world.nodes[event.a], world.nodes[event.b])
            counters.inc("faults.partitions")
        elif event.kind == "heal":
            world.network.heal(world.nodes[event.a], world.nodes[event.b])
            counters.inc("faults.heals")
        elif event.kind == "drop":
            self._link(event.a, event.b).drops += event.count
        elif event.kind == "delay":
            self._link(event.a, event.b).delays.append(
                (event.delay_us, event.count)
            )
        elif event.kind == "duplicate":
            self._link(event.a, event.b).duplicates += event.count
        elif event.kind == "drop_probability":
            self._link(event.a, event.b).drop_windows.append(
                (event.probability, event.until_us)
            )
        else:  # the plan's constructors make only the kinds above
            raise ValueError(f"unknown fault kind {event.kind!r}")

    # --- per-message effects -----------------------------------------------
    def on_send(self, src, dst, nbytes: int) -> bool:
        """Apply link effects to one ``src`` -> ``dst`` message about to
        be sent.  Returns True if the message should be *duplicated*
        (the network charges a second send); raises
        :class:`~repro.errors.MessageDroppedError` if it is dropped.
        Delays advance the virtual clock before the send."""
        effects = self._links.get((src.name, dst.name))
        if effects is None:
            return False
        world = self.world
        if effects.drops > 0:
            effects.drops -= 1
            world.counters.inc("faults.dropped")
            raise MessageDroppedError(
                f"fault plane dropped message {src.name!r} -> {dst.name!r}"
            )
        now = world.clock.now_us
        for probability, until_us in list(effects.drop_windows):
            if until_us is not None and now >= until_us:
                effects.drop_windows.remove((probability, until_us))
                continue
            if self.rng.random() < probability:
                world.counters.inc("faults.dropped")
                raise MessageDroppedError(
                    f"fault plane dropped message {src.name!r} -> "
                    f"{dst.name!r} (p={probability})"
                )
        if effects.delays:
            delay_us, count = effects.delays[0]
            world.clock.advance(delay_us, "network_fault_delay")
            world.counters.inc("faults.delayed")
            if count <= 1:
                effects.delays.pop(0)
            else:
                effects.delays[0] = (delay_us, count - 1)
        if effects.duplicates > 0:
            effects.duplicates -= 1
            world.counters.inc("faults.duplicated")
            return True
        return False
