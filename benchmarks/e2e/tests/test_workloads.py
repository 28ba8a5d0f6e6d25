"""Workload generators, content function, verification bookkeeping."""

import itertools
import random
from collections import Counter

import pytest

from benchmarks.e2e import workloads
from benchmarks.e2e.workloads import BLOCK, WORKLOADS, block_bytes


def _prefix(cls, seed, count):
    return list(itertools.islice(cls(seed).sequence(random.Random(seed)), count))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_equal_seeds_give_identical_sequences(name):
    cls = WORKLOADS[name]
    assert _prefix(cls, 5, 500) == _prefix(cls, 5, 500)
    assert _prefix(cls, 5, 500) != _prefix(cls, 6, 500)
    assert cls(5).initial_bytes(0) == cls(5).initial_bytes(0)
    assert cls(5).initial_bytes(0) != cls(6).initial_bytes(0)
    assert cls(5).initial_bytes(0) != cls(5).initial_bytes(1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_round_has_the_stated_mix(name):
    cls = WORKLOADS[name]
    ops = _prefix(cls, 9, cls.round_ops * 50)
    first = Counter(op[0] for op in ops[:cls.round_ops])
    for start in range(0, len(ops), cls.round_ops):
        assert Counter(op[0] for op in ops[start:start + cls.round_ops]) == first
    assert set(first) <= set(workloads.OP_KINDS)


def test_declared_mixes():
    assert Counter(op[0] for op in _prefix(WORKLOADS["meta_open_stat"], 1, 16)) == {
        "stat": 4, "open": 4, "fstat": 4, "close": 4}
    assert Counter(op[0] for op in _prefix(WORKLOADS["write_sync_4k"], 1, 9)) == {
        "pwrite": 8, "fsync": 1}
    assert Counter(op[0] for op in _prefix(WORKLOADS["dfs_mixed"], 1, 21)) == {
        "pread": 12, "stat": 4, "pwrite": 3, "open": 1, "close": 1}
    assert (_prefix(WORKLOADS["read_hot_4k"], 4, 300)
            == _prefix(WORKLOADS["read_cold_4k"], 4, 300))


def test_block_content_names_its_place():
    a = block_bytes(7, 3, 11, 0)
    assert len(a) == BLOCK
    assert a != block_bytes(7, 3, 12, 0)
    assert a != block_bytes(7, 4, 11, 0)
    assert a != block_bytes(7, 3, 11, 1)
    assert a != block_bytes(8, 3, 11, 0)


def _in_process_fs():
    from repro.fs import create_sfs
    from repro.serve import FileService
    from repro.storage import BlockDevice
    from repro.unix.posixlike import Posix
    from repro.world import World

    world = World()
    node = world.create_node("n")
    sfs = create_sfs(node, BlockDevice(node.nucleus, "sd0", 8192))
    return FileService(Posix(sfs.top, world.create_user_domain(node)))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_op_verifies_against_a_real_stack(name):
    """No sockets: the same FileService the server exports, in process."""
    cls = WORKLOADS[name]
    fs = _in_process_fs()
    workload = cls(3)
    workload.populate(fs)
    assert workload.touch_working_set(fs) == 0
    workload.saved()
    workload.attach(fs)
    for op in itertools.islice(workload.sequence(random.Random(3)), cls.round_ops * 6):
        assert workload.step(fs, op) is True, op
    calls, failed = workload.final_check(fs)
    assert failed == 0
    acknowledged, intact = workload.durable_check(fs)
    assert acknowledged == intact


class _Corrupting:
    """Wraps a FileService; flips one byte of every pread it returns."""

    def __init__(self, fs):
        self._fs = fs

    def __getattr__(self, name):
        return getattr(self._fs, name)

    def pread(self, fd, size, offset):
        data = bytearray(self._fs.pread(fd, size, offset))
        data[100] ^= 0xFF
        return bytes(data)


def test_a_wrong_byte_is_a_failed_op():
    fs = _in_process_fs()
    workload = WORKLOADS["read_hot_4k"](3)
    workload.populate(fs)
    workload.attach(fs)
    assert workload.step(fs, ("pread", 0, 5)) is True
    assert workload.step(_Corrupting(fs), ("pread", 0, 5)) is False


def test_durability_accounting():
    fs = _in_process_fs()
    workload = WORKLOADS["write_sync_4k"](3)
    workload.populate(fs)
    workload.saved()
    workload.attach(fs)
    total = workload.FILES * workload.file_blocks * BLOCK
    assert workload.durable_check(fs) == (total, total)

    # An unsynced overwrite may or may not have reached the image: both
    # the saved version and the new one count as intact.
    assert workload.step(fs, ("pwrite", 0, 1, ))
    assert workload.durable[(0, 1)] == 0 and workload.current[(0, 1)] == 1
    assert workload.durable_check(fs) == (total, total)

    # After fsync only the new version (or a later one) does.
    assert workload.step(fs, ("fsync", 0, 0))
    assert workload.durable[(0, 1)] == 1
    fd = workload._fds[0]
    fs.pwrite(fd, block_bytes(3, 0, 1, 0), BLOCK)  # the image "lost" the write
    assert workload.durable_check(fs) == (total, total - BLOCK)

    # A block holding some other block's bytes is lost too.
    fs.pwrite(fd, block_bytes(3, 0, 2, 0), 7 * BLOCK)
    assert workload.durable_check(fs) == (total, total - 2 * BLOCK)


def test_whole_file_rewrite_supersedes_what_was_durable():
    fs = _in_process_fs()
    workload = WORKLOADS["stream_256k"](3)
    workload.populate(fs)
    workload.saved()
    size = workload.file_blocks * BLOCK
    assert workload.durable_check(fs) == (4 * size, 4 * size)
    assert workload.step(fs, ("write_file", 2))
    assert workload.step(fs, ("read_file", 2))
    assert workload.durable_check(fs) == (3 * size, 3 * size)
