"""Block bitmap allocator.

Works on an in-memory image of the on-disk bitmaps; the owning file
system flushes dirty bitmap blocks to the device on sync.  First-fit
with a rotating cursor per cylinder group, which keeps allocation
deterministic while avoiding pathological re-scanning.

The allocator is group-aware (PR 9): each cylinder group contributes a
``(start, data_start, end)`` region with its own cursor and its own
dirty flag, and callers may pass a *group hint* so an i-node's blocks
land in the i-node's own group — the FFS locality policy.  With a
single legacy group (the default constructor) the behaviour is exactly
the classic single-cursor first-fit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import NoSpaceError, StorageError

#: One allocation region: (region start, first data block, one past end).
GroupRange = Tuple[int, int, int]


class BlockAllocator:
    """Allocation state for the data-block regions of one volume."""

    def __init__(
        self,
        num_blocks: int,
        data_start: int,
        groups: Optional[Sequence[GroupRange]] = None,
    ) -> None:
        self.num_blocks = num_blocks
        self.data_start = data_start
        #: Cylinder-group regions; the legacy single group spans the
        #: whole device with its data region at ``data_start``.
        self._groups: List[GroupRange] = list(
            groups if groups is not None else [(0, data_start, num_blocks)]
        )
        self._used: Set[int] = set()
        self._cursors: List[int] = [g[1] for g in self._groups]
        self._group_used: List[int] = [0] * len(self._groups)
        self._dirty_groups: Set[int] = set()
        self._last_group = 0

    # --- geometry ---------------------------------------------------------
    def _group_of(self, index: int) -> Optional[int]:
        """Group whose *data region* contains ``index`` (None if the
        block is metadata or out of range)."""
        for gi, (_start, data_lo, end) in enumerate(self._groups):
            if data_lo <= index < end:
                return gi
        return None

    # --- persistence image -----------------------------------------------------
    def group_bitmap(self, gi: int, block_size: int) -> List[bytes]:
        """Serialize one group's bitmap blocks (bit set = block in use;
        bits are relative to the group's start; the group's own
        metadata blocks — everything before its data region — are
        always marked used)."""
        start, data_lo, end = self._groups[gi]
        bits_per_block = block_size * 8
        span = end - start
        nblocks = (span + bits_per_block - 1) // bits_per_block
        bitmap = bytearray(nblocks * block_size)
        for index in range(start, min(data_lo, end)):
            rel = index - start
            bitmap[rel // 8] |= 1 << (rel % 8)
        for index in self._used:
            if data_lo <= index < end:
                rel = index - start
                bitmap[rel // 8] |= 1 << (rel % 8)
        return [
            bytes(bitmap[i * block_size : (i + 1) * block_size])
            for i in range(nblocks)
        ]

    @classmethod
    def from_group_bitmaps(
        cls,
        num_blocks: int,
        data_start: int,
        groups: Sequence[GroupRange],
        bitmaps: Sequence[bytes],
    ) -> "BlockAllocator":
        """Rebuild allocation state from each group's concatenated
        bitmap bytes (``bitmaps[g]`` covers group ``g``)."""
        allocator = cls(num_blocks, data_start, groups)
        for gi, (start, data_lo, end) in enumerate(groups):
            raw = bitmaps[gi]
            for index in range(data_lo, end):
                rel = index - start
                if raw[rel // 8] & (1 << (rel % 8)):
                    allocator._used.add(index)
                    allocator._group_used[gi] += 1
        return allocator

    # --- allocation ---------------------------------------------------------
    @property
    def capacity(self) -> int:
        return sum(end - data_lo for _s, data_lo, end in self._groups)

    def allocate(self, group_hint: Optional[int] = None) -> int:
        """Allocate one data block, preferring the hinted group and
        falling over to the next group with free blocks."""
        if len(self._used) >= self.capacity:
            raise NoSpaceError("no free data blocks")
        ngroups = len(self._groups)
        first = group_hint if group_hint is not None else self._last_group
        for step in range(ngroups):
            gi = (first + step) % ngroups
            _start, data_lo, end = self._groups[gi]
            if self._group_used[gi] >= end - data_lo:
                continue
            index = self._cursors[gi]
            total = end - data_lo
            scanned = 0
            while scanned <= total:
                if index >= end or index < data_lo:
                    index = data_lo
                if index not in self._used:
                    self._used.add(index)
                    self._cursors[gi] = index + 1
                    self._group_used[gi] += 1
                    self._dirty_groups.add(gi)
                    self._last_group = gi
                    return index
                index += 1
                scanned += 1
        raise NoSpaceError("no free data blocks")  # pragma: no cover

    def free(self, index: int) -> None:
        gi = self._group_of(index)
        if gi is None:
            raise StorageError(f"free of non-data block {index}")
        if index not in self._used:
            raise StorageError(f"double free of block {index}")
        self._used.remove(index)
        self._group_used[gi] -= 1
        self._dirty_groups.add(gi)

    def claim(self, index: int) -> None:
        """Force-mark a data block used — the fsck repair path for
        blocks an i-node references but the bitmap lost."""
        gi = self._group_of(index)
        if gi is None:
            raise StorageError(f"claim of non-data block {index}")
        if index not in self._used:
            self._used.add(index)
            self._group_used[gi] += 1
            self._dirty_groups.add(gi)

    # --- introspection ----------------------------------------------------------
    def is_allocated(self, index: int) -> bool:
        return index in self._used

    @property
    def used_count(self) -> int:
        return len(self._used)

    @property
    def free_count(self) -> int:
        return self.capacity - len(self._used)

    @property
    def dirty(self) -> bool:
        return bool(self._dirty_groups)

    @property
    def dirty_groups(self) -> Set[int]:
        return self._dirty_groups

    def mark_clean(self) -> None:
        self._dirty_groups.clear()
