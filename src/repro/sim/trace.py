"""Optional event tracing.

A :class:`Tracer` records a bounded timeline of system events —
invocations with their chosen path, network messages, device transfers —
for debugging stacks and for teaching: the rendered trace of, say, a
remote read through DFS/COMPFS/SFS shows the exact sequence the paper's
sec. 4.5 walkthrough narrates.

Disabled by default (``world.tracer is None``); enable with
``world.enable_tracing()``.  The hooks cost one attribute check when
disabled.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Deque, Dict, List, Optional

#: Events a :class:`Tracer` keeps; older ones are dropped (and counted).
CAPACITY = 10_000


@dataclasses.dataclass
class TraceEvent:
    """One recorded event."""

    seq: int
    time_us: float
    category: str
    name: str
    detail: Dict[str, object]

    def render(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time_us:12.1f}us] {self.category:8} {self.name} {detail}"


class Tracer:
    """A bounded ring buffer of the last :data:`CAPACITY` trace events."""

    def __init__(self) -> None:
        self._events: Deque[TraceEvent] = collections.deque(maxlen=CAPACITY)
        self._seq = 0
        self.dropped = 0

    def record(
        self, time_us: float, category: str, name: str, **detail: object
    ) -> None:
        """Append one event to the ring.

        ``seq`` is a global event id: it advances for *every* record,
        including ones whose append immediately evicts an older event,
        so gaps never appear and renderings stay ordered across drops.
        ``dropped`` counts evictions — the increment happens before the
        deque evicts, when the buffer is already full — so after any
        sequence of records (with no ``clear``) the invariants hold::

            len(tracer) == min(total_records, CAPACITY)
            dropped     == max(0, total_records - CAPACITY)
            events()[0].seq == dropped + 1   # oldest retained event
        """
        self._seq += 1
        if len(self._events) == CAPACITY:
            self.dropped += 1
        self._events.append(TraceEvent(self._seq, time_us, category, name, detail))

    # --- querying ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(self, category: Optional[str] = None) -> List[TraceEvent]:
        if category is None:
            return list(self._events)
        return [e for e in self._events if e.category == category]

    def names(self, category: Optional[str] = None) -> List[str]:
        return [e.name for e in self.events(category)]

    def render(self, last: int = 40) -> str:
        """Human-readable tail of the timeline."""
        tail = list(self._events)[-last:]
        lines = [event.render() for event in tail]
        if self.dropped:
            lines.insert(0, f"... ({self.dropped} earlier events dropped)")
        return "\n".join(lines)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
