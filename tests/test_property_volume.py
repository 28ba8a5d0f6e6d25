"""Property-based tests for the volume engine: a stateful random
workload against a dict-based oracle, with fsck invariants after every
batch and across remounts."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.block_device import RamDevice
from repro.storage.inode import FileType
from repro.storage.volume import Volume
from repro.types import PAGE_SIZE
from repro.world import World


def fresh_volume():
    world = World()
    node = world.create_node("prop")
    device = RamDevice(node.nucleus, "ram", 4096)
    return Volume.mkfs(device, inode_count=128), device


_PATTERN = bytes(range(1, 252)) * 64


def runs_touched(volume, ino, offset, size):
    """Physically contiguous runs of mapped device blocks under
    ``[offset, offset + size)`` — the transfers one call may make."""
    inode = volume.iget(ino)
    bs = volume.sb.block_size
    mapped = [
        volume.bmap(inode, fb)
        for fb in range(offset // bs, (offset + size - 1) // bs + 1)
    ]
    return sum(
        1 for prev, block in zip([0] + mapped, mapped)
        if block and block != (prev and prev + 1)
    )


file_ids = st.integers(min_value=0, max_value=7)
op = st.one_of(
    st.tuples(st.just("write"), file_ids,
              st.integers(0, 3 * PAGE_SIZE), st.binary(min_size=1, max_size=2048)),
    # Multi-block writes at arbitrary offsets, far enough out to leave
    # holes and reach the indirect block; interleaved across files they
    # fragment each other's block maps.
    st.builds(
        lambda fid, offset, size, phase: (
            "write", fid, offset, _PATTERN[phase : phase + size]
        ),
        file_ids, st.integers(0, 16 * PAGE_SIZE),
        st.integers(1, 3 * PAGE_SIZE + 100), st.integers(0, 250),
    ),
    st.tuples(st.just("truncate"), file_ids, st.integers(0, 4 * PAGE_SIZE)),
    st.tuples(st.just("unlink"), file_ids),
    st.tuples(st.just("read"), file_ids,
              st.integers(0, 4 * PAGE_SIZE), st.integers(1, 2048)),
    st.tuples(st.just("read"), file_ids,
              st.integers(0, 18 * PAGE_SIZE), st.integers(1, 4 * PAGE_SIZE)),
)
#: Run ahead of every generated workload: two files written a block at
#: a time, alternately, so neither has two physically contiguous blocks
#: and both have holes (file blocks 1, 4, 6-11; 12 and 13 are indirect);
#: then an unaligned write across four of those runs, one of them a
#: hole, and a read across all of it.
FRAGMENT = [
    ("write", fid, index * PAGE_SIZE, _PATTERN[index : index + PAGE_SIZE])
    for index in (0, 2, 3, 5, 12, 13)
    for fid in (0, 1)
] + [
    ("write", 0, 2 * PAGE_SIZE + 100, _PATTERN[7 : 7 + 3 * PAGE_SIZE + 50]),
    ("read", 0, PAGE_SIZE // 2, 13 * PAGE_SIZE),
]


class TestVolumeAgainstOracle:
    @given(ops=st.lists(op, max_size=40))
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_workload_matches_oracle(self, ops):
        volume, device = fresh_volume()
        root = volume.sb.root_ino
        bs = volume.sb.block_size
        clock = device.world.clock
        oracle = {}       # name -> bytearray
        inos = {}         # name -> ino
        for action in FRAGMENT + ops:
            kind, fid = action[0], action[1]
            name = f"f{fid}"
            if kind == "write":
                _, _, offset, data = action
                if name not in oracle:
                    inos[name] = volume.create(root, name, FileType.REGULAR).ino
                    oracle[name] = bytearray()
                reads, writes = device.reads, device.writes
                volume.write_data(inos[name], offset, data)
                # The clustering contract: one write per physically
                # contiguous run, one read per partial block (the
                # unaligned head, the partial tail) and no other I/O.
                end = offset + len(data)
                partial = {offset // bs} if offset % bs else set()
                if end % bs:
                    partial.add(end // bs)
                assert device.reads - reads == len(partial)
                assert device.writes - writes == runs_touched(
                    volume, inos[name], offset, len(data)
                )
                inode = volume.iget(inos[name])
                assert inode.mtime_us == inode.ctime_us == int(clock.now_us)
                buf = oracle[name]
                if len(buf) < end:
                    buf.extend(bytes(end - len(buf)))
                buf[offset:end] = data
                assert inode.size == len(buf)
                # A partial head or tail kept its neighbours' bytes.
                span = offset - offset % bs
                assert volume.read_data(inos[name], span, end - span + bs) == bytes(
                    buf[span : end + bs]
                )
            elif kind == "truncate":
                _, _, length = action
                if name in oracle:
                    volume.truncate(inos[name], length)
                    buf = oracle[name]
                    if length <= len(buf):
                        del buf[length:]
                    else:
                        buf.extend(bytes(length - len(buf)))
            elif kind == "unlink":
                if name in oracle:
                    volume.unlink(root, name)
                    del oracle[name]
                    del inos[name]
            elif kind == "read":
                _, _, offset, size = action
                if name in oracle:
                    expected = bytes(oracle[name][offset : offset + size])
                    reads, writes = device.reads, device.writes
                    assert volume.read_data(inos[name], offset, size) == expected
                    # Holes cost no I/O; every mapped run costs one read.
                    assert device.writes == writes
                    assert device.reads - reads == (
                        runs_touched(volume, inos[name], offset, len(expected))
                        if expected else 0
                    )
                    if expected:
                        assert volume.iget(inos[name]).atime_us == int(clock.now_us)
        # Global invariants after the whole run.
        assert volume.fsck() == []
        for name, buf in oracle.items():
            assert volume.iget(inos[name]).size == len(buf)
            reads = device.reads
            assert volume.read_data(inos[name], 0, len(buf)) == bytes(buf)
            assert device.reads - reads == (
                runs_touched(volume, inos[name], 0, len(buf)) if buf else 0
            )

    @given(
        contents=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.binary(min_size=0, max_size=3 * PAGE_SIZE),
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_remount_roundtrip(self, contents):
        volume, device = fresh_volume()
        root = volume.sb.root_ino
        for name, data in contents.items():
            inode = volume.create(root, name, FileType.REGULAR)
            if data:
                volume.write_data(inode.ino, 0, data)
        volume.unmount()
        again = Volume.mount(device)
        assert again.fsck() == []
        assert set(again.readdir(again.sb.root_ino)) == set(contents)
        for name, data in contents.items():
            ino = again.lookup(again.sb.root_ino, name)
            assert again.read_data(ino, 0, len(data) + 10) == data

    @given(sizes=st.lists(st.integers(0, 6 * PAGE_SIZE), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_allocator_conservation(self, sizes):
        """Creating then deleting files returns the allocator to its
        starting state — no leaked blocks."""
        volume, _ = fresh_volume()
        root = volume.sb.root_ino
        baseline = volume.allocator.used_count
        for i, size in enumerate(sizes):
            inode = volume.create(root, f"t{i}", FileType.REGULAR)
            if size:
                volume.write_data(inode.ino, 0, b"z" * size)
        for i in range(len(sizes)):
            volume.unlink(root, f"t{i}")
        # Root directory may have grown and shrunk; it rewrites compactly,
        # so only its own blocks may remain.
        assert volume.allocator.used_count <= baseline + 1
        assert volume.fsck() == []
