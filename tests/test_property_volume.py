"""Property-based tests for the volume engine: a stateful random
workload against a dict-based oracle, with fsck invariants after every
batch and across remounts."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.block_device import RamDevice
from repro.storage.inode import NUM_DIRECT, FileType
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


#: The block-map campaign: three files, writes landing anywhere from the
#: direct blocks to three level-1 blocks into the double-indirect tree
#: (file block >= 12 + 1024), truncates that cut anywhere in that range.
_TREE_SPAN = (NUM_DIRECT + 4 * 1024) * PAGE_SIZE
tree_files = st.integers(min_value=0, max_value=2)
tree_offsets = st.one_of(
    st.integers(0, _TREE_SPAN),
    # Around the two boundaries of the tree.
    st.integers((NUM_DIRECT - 2) * PAGE_SIZE, (NUM_DIRECT + 2) * PAGE_SIZE),
    st.integers((NUM_DIRECT + 1022) * PAGE_SIZE, (NUM_DIRECT + 1026) * PAGE_SIZE),
)
tree_op = st.one_of(
    st.tuples(st.just("write"), tree_files, tree_offsets,
              st.integers(1, 3 * PAGE_SIZE)),
    st.tuples(st.just("truncate"), tree_files, tree_offsets),
    st.tuples(st.just("unlink"), tree_files),
)
#: Ahead of every generated campaign: one file with data under the
#: single-indirect block and under two level-1 blocks, cut back into
#: the double-indirect range, then into the single-indirect one.
TREE_PREAMBLE = [
    ("write", 0, (NUM_DIRECT + 5) * PAGE_SIZE - 10, 2 * PAGE_SIZE),
    ("write", 0, (NUM_DIRECT + 1024 + 7) * PAGE_SIZE, 100),
    ("write", 0, (NUM_DIRECT + 2 * 1024 + 1000) * PAGE_SIZE, PAGE_SIZE + 1),
    ("truncate", 0, (NUM_DIRECT + 1024 + 8) * PAGE_SIZE),
    ("truncate", 0, (NUM_DIRECT + 6) * PAGE_SIZE),
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

    @given(ops=st.lists(tree_op, max_size=14))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_block_map_walk_matches_oracle(self, ops):
        """Sparse writes and truncates out in the double-indirect range
        against a model of the block map itself.  After every step the
        one walk agrees with the one descent, shows a pointer block
        before anything it points to, and the allocator holds exactly
        what the model says each file owns: a truncate into the tree
        frees the data blocks past the cut and nothing else, the pointer
        blocks stay with the i-node until an unlink frees the lot."""
        volume, device = fresh_volume()
        root = volume.sb.root_ino
        bs = volume.sb.block_size
        ppb = bs // 4
        inos = {}      # name -> ino
        mapped = {}    # name -> {file blocks that hold data}
        pointers = {}  # name -> {pointer blocks instantiated: "ind", "dbl", outer}
        for kind, fid, *args in TREE_PREAMBLE + ops:
            name = f"t{fid}"
            if kind == "write":
                offset, size = args
                if name not in inos:
                    inos[name] = volume.create(root, name, FileType.REGULAR).ino
                    mapped[name], pointers[name] = set(), set()
                volume.write_data(inos[name], offset, _PATTERN[:size])
                assert volume.read_data(inos[name], offset, size) == _PATTERN[:size]
                for fb in range(offset // bs, (offset + size - 1) // bs + 1):
                    mapped[name].add(fb)
                    if fb >= NUM_DIRECT + ppb:
                        pointers[name] |= {"dbl", (fb - NUM_DIRECT - ppb) // ppb}
                    elif fb >= NUM_DIRECT:
                        pointers[name].add("ind")
            elif name not in inos:
                continue
            elif kind == "truncate":
                (length,) = args
                used = volume.allocator.used_count
                past = {fb for fb in mapped[name] if fb >= (length + bs - 1) // bs}
                volume.truncate(inos[name], length)
                assert used - volume.allocator.used_count == len(past)
                mapped[name] -= past
            elif kind == "unlink":
                used = volume.allocator.used_count
                volume.unlink(root, name)
                owned = len(mapped.pop(name)) + len(pointers.pop(name))
                # (The shrunken root directory may give a block back too.)
                assert used - volume.allocator.used_count in (owned, owned + 1)
                del inos[name]
            owned_everywhere = 0
            for name, ino in list(inos.items()) + [("/", root)]:
                inode = volume.iget(ino)
                walked = list(volume._walk(inode))
                owned_everywhere += len(walked)
                seen = {0}  # holder 0: the i-node itself
                for file_block, block, holder, _ in walked:
                    assert holder in seen, "visited before its pointer block"
                    if file_block is None:
                        seen.add(block)
                if name == "/":
                    continue
                assert {fb: b for fb, b, _, _ in walked if fb is not None} == {
                    fb: volume.bmap(inode, fb) for fb in mapped[name]
                }
                assert all(b for _, b, _, _ in walked)
                assert sum(fb is None for fb, _, _, _ in walked) == len(pointers[name])
                assert volume._mapped_blocks(inode) == [
                    (fb, b) for fb, b, _, _ in walked if fb is not None
                ]
            assert volume.allocator.used_count == owned_everywhere
            assert volume.fsck() == []

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
