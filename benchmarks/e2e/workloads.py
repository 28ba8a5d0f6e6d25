"""The six workloads.

A workload is: files to populate, a warm-up that touches the whole
working set, and an endless op sequence drawn from a seeded generator.
One op is one ``FileService`` call.  :meth:`Workload.sequence` is pure —
it needs no server, so equal seeds give byte-identical sequences — and
:meth:`Workload.step` performs one op and verifies what came back.

File contents are a function of (seed, file, block, version): every
block is a 16-byte header naming exactly those four numbers, repeated,
so any read is checked without storing expected bytes, and after a
crash a block says which write it holds.

Op kinds are mixed in fixed-composition shuffled rounds (not by
independent draws), so a prefix of any seed's sequence has exactly the
stated mix and the deterministic per-op counts do not wander with the
seed.
"""

from __future__ import annotations

import random
import struct
from typing import Dict, Iterator, List, Tuple

from repro.unix.posixlike import O_RDONLY, O_RDWR

BLOCK = 4096
_HEADER = struct.Struct("<IIII")
_REPEAT = BLOCK // _HEADER.size

Op = Tuple  # (kind, *args)
Key = Tuple[int, int]  # (file id, block index)


def block_bytes(seed: int, file_id: int, block: int, version: int) -> bytes:
    return _HEADER.pack(seed & 0xFFFFFFFF, file_id, block, version) * _REPEAT


def file_bytes(seed: int, file_id: int, blocks: int, version: int) -> bytes:
    return b"".join(
        block_bytes(seed, file_id, block, version) for block in range(blocks)
    )


class Workload:
    """Base: bookkeeping of what was written, acknowledged and read."""

    name = ""
    stack = "sfs"
    #: Restart the server on the saved image with ``cache=False`` before
    #: measuring (the paper's uncached rows).
    cold = False
    #: FileService calls in one round of the mix; phase lengths are
    #: multiples of it so every phase sees the exact mix.
    round_ops = 1
    #: Rounds per timed batch (~60 ms at seed speed), in the fixed-count
    #: exact segment, the span run and the instruction run.
    batch_rounds = 1
    exact_rounds = 1
    span_rounds = 1
    instr_rounds = 1
    warm_rounds = 1

    def __init__(self, seed: int, small: bool = False) -> None:
        """``small`` (``--smoke``) may shrink the populated tree."""
        self.seed = seed
        self.paths: List[str] = []
        self.file_blocks = 0
        #: Latest version written per block (what a read must return).
        self.current: Dict[Key, int] = {}
        #: Version acknowledged durable per block: on the image at
        #: ``control.save()``, or covered by a completed ``fsync``.
        self.durable: Dict[Key, int] = {}
        self._pending: Dict[int, List[Key]] = {}
        self._version = 0
        self._fds: List[int] = []
        self._txn_fd = -1

    # --- set-up -----------------------------------------------------------
    def dirs(self) -> List[str]:
        return []

    def populate(self, fs) -> None:
        for path in self.dirs():
            fs.mkdir(path)
        for file_id, path in enumerate(self.paths):
            fs.write_file(path, self.initial_bytes(file_id))
            for block in range(max(1, self.file_blocks)):
                self.current[(file_id, block)] = 0

    def initial_bytes(self, file_id: int) -> bytes:
        return file_bytes(self.seed, file_id, self.file_blocks, 0)

    def saved(self) -> None:
        """``control.save()`` completed: everything written is durable."""
        self.durable = dict(self.current)
        self._pending.clear()

    def attach(self, fs) -> None:
        """Open the descriptors the ops use (after any server restart)."""

    def touch_working_set(self, fs) -> int:
        """Read every populated file once, checking it; returns failures."""
        failed = 0
        for file_id, path in enumerate(self.paths):
            failed += not self._file_matches(file_id, fs.read_file(path))
        return failed

    # --- the op sequence ----------------------------------------------------
    def sequence(self, rng: random.Random) -> Iterator[Op]:
        raise NotImplementedError

    def step(self, fs, op: Op) -> bool:
        """Perform one op; True when what it returned is correct."""
        raise NotImplementedError

    def _open(self, fs, file_id: int) -> bool:
        """``open`` half of an open/.../close transaction."""
        self._txn_fd = fs.open(self.paths[file_id], O_RDONLY)
        return self._txn_fd >= 3

    def _close(self, fs) -> bool:
        fs.close(self._txn_fd)
        return True

    # --- write tracking -----------------------------------------------------
    def _next_version(self) -> int:
        self._version += 1
        return self._version

    def _pwrite(self, fs, file_id: int, block: int) -> bool:
        """Overwrite one block with the next version of its contents."""
        version = self._next_version()
        data = block_bytes(self.seed, file_id, block, version)
        written = fs.pwrite(self._fds[file_id], data, block * BLOCK)
        self.current[(file_id, block)] = version
        self._pending.setdefault(file_id, []).append((file_id, block))
        return written == BLOCK

    def _synced(self, file_id: int) -> None:
        for key in self._pending.pop(file_id, ()):
            self.durable[key] = self.current[key]

    def _rewrote_file(self, file_id: int, version: int) -> None:
        """A truncating whole-file rewrite supersedes what was durable."""
        for block in range(self.file_blocks):
            self.current[(file_id, block)] = version
            self.durable.pop((file_id, block), None)

    # --- verification -------------------------------------------------------
    def _block_matches(self, file_id: int, block: int, data: bytes) -> bool:
        version = self.current[(file_id, block)]
        return data == block_bytes(self.seed, file_id, block, version)

    def _file_matches(self, file_id: int, data: bytes) -> bool:
        if len(data) != self.file_blocks * BLOCK:
            return False
        return all(
            self._block_matches(
                file_id, block, data[block * BLOCK:(block + 1) * BLOCK]
            )
            for block in range(self.file_blocks)
        )

    def final_check(self, fs) -> Tuple[int, int]:
        """Read everything back in full; ``(calls, failed)``."""
        failed = self.touch_working_set(fs)
        return len(self.paths), failed

    def durable_check(self, fs) -> Tuple[int, int]:
        """After kill + reopen: ``(acknowledged bytes, intact bytes)``.  A
        block is intact when it holds the acknowledged version or a later
        write of the same block (which was allowed to reach the image)."""
        acknowledged = intact = 0
        for file_id, path in enumerate(self.paths):
            keys = [k for k in self.durable if k[0] == file_id]
            if not keys:
                continue
            try:
                data = fs.read_file(path)
            except Exception:  # a lost file is lost bytes, not a crash
                data = b""
            for key in keys:
                size = self._block_size(key)
                acknowledged += size
                block = key[1]
                got = data[block * BLOCK:block * BLOCK + size]
                if len(got) < _HEADER.size:
                    continue
                seed, fid, blk, version = _HEADER.unpack_from(got)
                if (
                    (seed, fid, blk) == (self.seed & 0xFFFFFFFF, file_id, block)
                    and self.durable[key] <= version <= self.current[key]
                    and got == block_bytes(self.seed, file_id, block, version)[:size]
                ):
                    intact += size
        return acknowledged, intact

    def _block_size(self, key: Key) -> int:
        return BLOCK

    def stored_bytes(self) -> int:
        """User data bytes the populated files hold."""
        return sum(self._block_size(key) for key in self.current)

    def payload_bytes(self, op: Op) -> int:
        """User data bytes the op carries (0 for metadata ops)."""
        kind = op[0]
        if kind in ("pread", "pwrite"):
            return BLOCK
        if kind in ("read_file", "write_file"):
            return self.file_blocks * BLOCK
        return 0


def _rounds(rng: random.Random, kinds: List[str]) -> Iterator[str]:
    """Endless shuffled rounds of a fixed composition."""
    while True:
        order = list(kinds)
        rng.shuffle(order)
        yield from order


class MetaOpenStat(Workload):
    name = "meta_open_stat"
    DIRS = 8
    SIZE = 512
    round_ops = 16  # 4 stat + 4 x (open, fstat, close)
    batch_rounds = 6
    exact_rounds = 240
    span_rounds = 60
    instr_rounds = 12
    warm_rounds = 12

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.files = 64 if small else 512
        self.paths = [
            f"d{i % self.DIRS}/f{i:03d}" for i in range(self.files)
        ]

    def dirs(self) -> List[str]:
        return [f"d{i}" for i in range(self.DIRS)]

    def initial_bytes(self, file_id: int) -> bytes:
        return block_bytes(self.seed, file_id, 0, 0)[:self.SIZE]

    def _block_size(self, key: Key) -> int:
        return self.SIZE

    def _file_matches(self, file_id: int, data: bytes) -> bool:
        return data == self.initial_bytes(file_id)

    def touch_working_set(self, fs) -> int:
        # One stat and one open/fstat/close per file creates the per-file
        # state the measured ops reuse.
        failed = 0
        for file_id, path in enumerate(self.paths):
            failed += fs.stat(path).size != self.SIZE
            fd = fs.open(path, O_RDONLY)
            failed += fs.fstat(fd).size != self.SIZE
            fs.close(fd)
        return failed

    def final_check(self, fs) -> Tuple[int, int]:
        return 0, 0  # nothing was written

    def sequence(self, rng: random.Random) -> Iterator[Op]:
        for kind in _rounds(rng, ["stat"] * 4 + ["open"] * 4):
            file_id = rng.randrange(self.files)
            if kind == "stat":
                yield ("stat", file_id)
            else:
                yield ("open", file_id)
                yield ("fstat", file_id)
                yield ("close", file_id)

    def step(self, fs, op: Op) -> bool:
        kind, file_id = op
        if kind == "stat":
            return fs.stat(self.paths[file_id]).size == self.SIZE
        if kind == "open":
            return self._open(fs, file_id)
        if kind == "fstat":
            return fs.fstat(self._txn_fd).size == self.SIZE
        return self._close(fs)


class ReadHot4k(Workload):
    name = "read_hot_4k"
    FILES = 8
    round_ops = 1
    batch_rounds = 128
    exact_rounds = 4096
    span_rounds = 1024
    instr_rounds = 256
    warm_rounds = 256

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.file_blocks = 64 if small else 256  # 1 MiB
        self.paths = [f"data{i}" for i in range(self.FILES)]

    def attach(self, fs) -> None:
        self._fds = [fs.open(path, O_RDWR) for path in self.paths]

    def sequence(self, rng: random.Random) -> Iterator[Op]:
        while True:
            yield ("pread", rng.randrange(self.FILES),
                   rng.randrange(self.file_blocks))

    def step(self, fs, op: Op) -> bool:
        _kind, file_id, block = op
        data = fs.pread(self._fds[file_id], BLOCK, block * BLOCK)
        return self._block_matches(file_id, block, data)


class ReadCold4k(ReadHot4k):
    name = "read_cold_4k"
    cold = True

    def touch_working_set(self, fs) -> int:
        # Nothing is cached on this server; reading 8 MiB through it would
        # only lengthen set-up.  The check happens before the restart.
        return 0


class WriteSync4k(ReadHot4k):
    name = "write_sync_4k"
    round_ops = 9  # 8 pwrite to one file + fsync of that file
    batch_rounds = 12
    exact_rounds = 600
    span_rounds = 120
    instr_rounds = 30
    warm_rounds = 30

    def sequence(self, rng: random.Random) -> Iterator[Op]:
        # One file per round, so every write is acknowledged by the fsync
        # that follows it and each fsync has the same eight pages to push.
        while True:
            file_id = rng.randrange(self.FILES)
            for block in rng.sample(range(self.file_blocks), 8):
                yield ("pwrite", file_id, block)
            yield ("fsync", file_id, 0)

    def step(self, fs, op: Op) -> bool:
        kind, file_id, block = op
        if kind == "fsync":
            fs.fsync(self._fds[file_id])
            self._synced(file_id)
            return True
        return self._pwrite(fs, file_id, block)


class Stream256k(Workload):
    name = "stream_256k"
    FILES = 4
    round_ops = 2  # write_file + read_file of one path
    batch_rounds = 15
    exact_rounds = 405
    span_rounds = 105
    instr_rounds = 20
    warm_rounds = 20

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.file_blocks = 64  # 256 KiB
        self.paths = [f"stream{i}" for i in range(self.FILES)]

    def sequence(self, rng: random.Random) -> Iterator[Op]:
        while True:
            file_id = rng.randrange(self.FILES)
            yield ("write_file", file_id)
            yield ("read_file", file_id)

    def step(self, fs, op: Op) -> bool:
        kind, file_id = op
        if kind == "write_file":
            version = self._next_version()
            data = file_bytes(self.seed, file_id, self.file_blocks, version)
            written = fs.write_file(self.paths[file_id], data)
            self._rewrote_file(file_id, version)
            return written == len(data)
        return self._file_matches(file_id, fs.read_file(self.paths[file_id]))


class DfsMixed(ReadHot4k):
    name = "dfs_mixed"
    stack = "dfs"
    FILES = 32
    round_ops = 21  # 12 pread, 4 stat, 3 pwrite, 1 x (open, close)
    batch_rounds = 8
    exact_rounds = 296
    span_rounds = 72
    instr_rounds = 15
    warm_rounds = 20

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.file_blocks = 16 if small else 64  # 256 KiB

    def sequence(self, rng: random.Random) -> Iterator[Op]:
        mix = ["pread"] * 12 + ["stat"] * 4 + ["pwrite"] * 3 + ["open"]
        for kind in _rounds(rng, mix):
            file_id = rng.randrange(self.FILES)
            block = rng.randrange(self.file_blocks)
            if kind == "open":
                yield ("open", file_id, 0)
                yield ("close", file_id, 0)
            else:
                yield (kind, file_id, block)

    def step(self, fs, op: Op) -> bool:
        kind, file_id, block = op
        if kind == "pread":
            return ReadHot4k.step(self, fs, op)
        if kind == "stat":
            return fs.stat(self.paths[file_id]).size == self.file_blocks * BLOCK
        if kind == "pwrite":
            return self._pwrite(fs, file_id, block)
        if kind == "open":
            return self._open(fs, file_id)
        return self._close(fs)


WORKLOADS = {
    cls.name: cls
    for cls in (MetaOpenStat, ReadHot4k, ReadCold4k, WriteSync4k, Stream256k,
                DfsMixed)
}

#: Every op kind any workload issues (``client.p50_us.<kind>``).
OP_KINDS = ("stat", "open", "fstat", "close", "pread", "pwrite", "fsync",
            "write_file", "read_file")
