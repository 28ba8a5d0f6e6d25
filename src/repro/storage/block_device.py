"""Simulated block devices.

Replaces the paper's 424 MB 4400 RPM SCSI disk (DESIGN.md sec. 2).  Each
transfer charges seek + average rotational latency + media transfer to
the virtual clock, which is what makes the uncached rows of Table 2
disk-bound.  A zero-latency :class:`RamDevice` variant exists for
ablations and for tests that exercise logic rather than cost.

Where the block bytes actually live is delegated to a pluggable
:class:`~repro.storage.blockstore.BlockStore`: the default
:class:`~repro.storage.blockstore.MemoryBlockStore` keeps the classic
in-memory dict (volatile, exactly as before), while an
:class:`~repro.storage.blockstore.ImageBlockStore` puts the same block
array in a sparse disk-image file so volumes survive process restarts.
Latency charging and fault injection are backend-independent — they
live here, above the store.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import DeviceError
from repro.ipc.invocation import operation
from repro.ipc.object import SpringObject
from repro.storage.blockstore import BlockStore, MemoryBlockStore
from repro.types import PAGE_SIZE
from repro.vm.page import ZERO_PAGE


class BlockDevice(SpringObject):
    """A fixed-geometry array of blocks with disk-like latency."""

    def __init__(
        self,
        domain,
        name: str,
        num_blocks: int = 0,
        block_size: int = PAGE_SIZE,
        charge_latency: bool = True,
        store: Optional[BlockStore] = None,
    ) -> None:
        super().__init__(domain)
        if store is not None:
            # The backend owns the geometry; the device adopts it.
            num_blocks = store.num_blocks
            block_size = store.block_size
        if num_blocks <= 0 or block_size <= 0:
            raise DeviceError("device geometry must be positive")
        if store is None:
            store = MemoryBlockStore(num_blocks, block_size)
        self.store = store
        self.name = name
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.charge_latency = charge_latency
        #: Shared immutable zero block handed out for unallocated reads —
        #: the system-wide interned page when the geometry matches.
        self._zero_block = (
            ZERO_PAGE if block_size == PAGE_SIZE else bytes(block_size)
        )
        self.reads = 0
        self.writes = 0
        #: Failure injection: block index -> error message.
        self._bad_blocks: Dict[int, str] = {}
        #: Power-failure injection: None = off; an int = writes left
        #: before the simulated power cut (see
        #: :meth:`inject_power_failure_after`).
        self._power_countdown: Optional[int] = None
        self._power_failed = False

    # --- device interface --------------------------------------------------
    def _transfer(self, start: int, count: int, write: bool) -> None:
        """Everything one transfer of ``count`` physically contiguous
        blocks at ``start`` does before its store call: validate (one
        test on the good path), the write-side power-cut
        gate when one is armed, and the charge.  ONE seek +
        rotational latency, then sequential media transfer — per-byte
        cost collapses for sequential runs, which is what makes
        clustering, read-ahead (paper sec. 8's open problem) and batched
        page-out pay."""
        if count <= 0 or start < 0 or start + count > self.num_blocks:
            if count <= 0:
                raise DeviceError(f"transfer of {count} blocks on {self.name!r}")
            raise DeviceError(
                f"blocks {start}..{start + count - 1} out of range on "
                f"{self.name!r} (0..{self.num_blocks - 1})"
            )
        bad = self._bad_blocks
        if bad:
            for index in range(start, start + count):
                if index in bad:
                    raise DeviceError(
                        f"I/O error on {self.name!r} block {index}: {bad[index]}"
                    )
        if write and self._power_countdown is not None:
            self._power_check()
        if self.charge_latency:
            self.world.charge.disk_io(count * self.block_size)

    def _power_check(self) -> None:
        """Write-side power-cut gate, entered only while a cut is armed:
        after the countdown runs out the write — and every later write —
        fails without reaching the store, leaving it exactly as a torn
        flush would."""
        if self._power_failed or self._power_countdown <= 0:
            self._power_failed = True
            raise DeviceError(f"simulated power failure on {self.name!r}")
        self._power_countdown -= 1

    @operation
    def read_block(self, start: int, count: int = 1) -> bytes:
        """Read ``count`` physically contiguous blocks in one transfer."""
        self._transfer(start, count, False)
        self.reads += 1
        data = self.store.read(start, count)
        if data is None:
            return self._zero_block
        return data

    @operation
    def write_block(self, start: int, data: bytes) -> None:
        """Write whole physically contiguous blocks in one transfer; a
        single short block is zero-padded."""
        size = len(data)
        block_size = self.block_size
        if size < block_size:
            padded = bytearray(block_size)
            padded[:size] = data
            data = padded
        elif size % block_size:
            raise DeviceError(
                f"write of {size} bytes is not a whole number of "
                f"{block_size}-byte blocks"
            )
        self._transfer(start, len(data) // block_size, True)
        self.writes += 1
        self.store.write(start, data)

    @operation
    def capacity_bytes(self) -> int:
        return self.num_blocks * self.block_size

    # --- durability --------------------------------------------------------
    def flush(self) -> None:
        """Push the backend's buffered writes to its medium (no-op for
        the in-memory store).  Not an operation: durability is free in
        virtual time — the simulated cost was charged per transfer."""
        self.store.flush()

    def close(self) -> None:
        self.store.close()

    # --- failure injection ------------------------------------------------------
    def inject_bad_block(self, index: int, reason: str = "media error") -> None:
        self._bad_blocks[index] = reason

    def clear_bad_blocks(self) -> None:
        self._bad_blocks.clear()

    def inject_power_failure_after(self, writes: int) -> None:
        """Let ``writes`` more write transfers succeed, then fail every
        subsequent write — a deterministic crash-mid-flush.  Reads keep
        working (the medium is intact; the machine is what died).
        Recovery is modelled by building a fresh device over the same
        store (same dict, or the reopened image file)."""
        self._power_countdown = writes
        self._power_failed = False

    # --- test/introspection helpers (not operations) -----------------------------
    def peek(self, index: int) -> bytes:
        """Raw block contents without latency or stats — test aid."""
        data = self.store.read(index)
        return data if data is not None else bytes(self.block_size)


class RamDevice(BlockDevice):
    """A block device with no mechanical latency (ablation aid)."""

    def __init__(
        self, domain, name: str, num_blocks: int, block_size: int = PAGE_SIZE
    ) -> None:
        super().__init__(domain, name, num_blocks, block_size, charge_latency=False)
