"""Sequential-stream detection for read-ahead policies.

A single "last fault index" scalar recognizes one sequential reader,
but two interleaved sequential streams on a shared cache (two clients
scanning different regions of the same file) alternate faults and never
look sequential to it.  :class:`StreamTable` keeps a small fixed-size
table of recent stream heads instead — the classic multi-stream
read-ahead detector — so each stream advances its own head.
"""

from __future__ import annotations

from typing import List

#: Stream heads a :class:`StreamTable` tracks.
STREAMS = 4


class StreamTable:
    """Table of the :data:`STREAMS` most recent sequential-stream heads.

    ``observe(index)`` reports whether the fault at ``index`` continues
    any tracked stream (some stream's head is ``index - 1``).  Unmatched
    faults start a new candidate stream, evicting the oldest when the
    table is full — so purely random access cycles candidates through
    the table without ever producing a hit.
    """

    __slots__ = ("_heads",)

    def __init__(self) -> None:
        self._heads: List[int] = []

    def observe(self, index: int) -> bool:
        """Record a fault at page ``index``; True if it is sequential
        with respect to one of the tracked streams."""
        try:
            position = self._heads.index(index - 1)
        except ValueError:
            self._heads.append(index)
            if len(self._heads) > STREAMS:
                self._heads.pop(0)
            return False
        self._heads.pop(position)
        self._heads.append(index)
        return True

    def advance_head(self, head: int) -> None:
        """Move the most recently matched stream's head to ``head`` — a
        prefetch consumed pages up to it, so the next fault of that scan
        lands at ``head + 1`` and must still look sequential."""
        if self._heads:
            self._heads[-1] = head

    def reset(self) -> None:
        self._heads.clear()
