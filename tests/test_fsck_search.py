"""Search, not examples: corrupt one i-node of a cleanly unmounted
volume, then mount, ``fsck(repair=True)`` and ``fsck()``.

The volume holds a root, one directory and six files of 1-21 pages
(three in each directory).  One case mutates a regular file's type,
nlink, size, one direct pointer, or its indirect or double-indirect
pointer (one to three of them), or the type field of any i-node but the
root and the reserved i-node 0.  Whatever the bytes, mount raises
nothing but a ``StorageError``, fsck nothing, one repair converges (a second
``fsck()`` finds nothing), the allocator holds exactly the blocks the
walks reach, and every file the case did not touch reads back intact.

Out of scope here (ROADMAP item 9): corrupt directory contents, the root
and the superblock (a directory cycle and an unreadable directory have
one test each, in ``test_storage_volume.py``).  So a regular file never becomes a directory (its
bytes would be read as entries), and an indirect pointer never lands on
another tree's pointer block (two trees sharing one: which is rightful
needs more than one i-node's view).

Every run starts with one fixed case per field (:func:`every_field`),
so each field is mutated and each repair step runs even when the draws
skew.  Tier-1 runs the default profile; the chaos job runs
``--hypothesis-profile=deep``.
"""

import struct

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.block_device import RamDevice
from repro.storage.inode import INODE_SIZE, FileType
from repro.storage.volume import Volume
from repro.types import PAGE_SIZE
from repro.world import World

#: Byte offsets of the fields of an on-disk i-node (storage/inode.py).
FIELDS = {"type": (0, "<H"), "nlink": (2, "<H"), "size": (4, "<I"),
          "indirect": (80, "<I"), "dbl_indirect": (84, "<I")}
FIELDS.update({f"direct{slot}": (32 + 4 * slot, "<I") for slot in range(12)})

#: Not a directory: a regular file read as one is corrupt directory
#: contents, which is item 9's.
types = st.integers(0, 0xFFFF).filter(lambda t: t != FileType.DIRECTORY)
#: Small values hit the metadata region, the data region and just past
#: the device; large ones are far out of range.
pointers = st.one_of(st.integers(0, 600), st.integers(0, 2**32 - 1))
values = {
    "type": types,
    "nlink": st.integers(0, 0xFFFF),
    "size": st.one_of(st.integers(0, 24 * PAGE_SIZE), st.integers(0, 2**32 - 1)),
}
mutation = st.sampled_from(sorted(FIELDS)).flatmap(
    lambda field: st.tuples(st.just(field), values.get(field, pointers))
)
#: The six files are i-nodes 3-8: the root is 1, ``d`` 2, then the files
#: in creation order.
FILE_INOS = range(3, 9)
#: ``(ino, mutations)``: a type over any i-node but the root and the
#: reserved i-node 0, or one to three fields of one regular file's.
cases = st.one_of(
    st.tuples(st.integers(2, 63), st.tuples(st.just("type"), types).map(lambda m: [m])),
    st.tuples(st.sampled_from(FILE_INOS), st.lists(mutation, min_size=1, max_size=3)),
)
#: One fixed value per field, for the case per field every run makes
#: before the search draws its own (which skews to some fields): an
#: unknown type, no link, one page long, a pointer off the device.
FIXED = {"type": 0x7777, "nlink": 0, "size": PAGE_SIZE}


def every_field(test):
    """Give ``test`` one explicit case per field, on the first file (13
    pages, so it has an indirect block) of six."""
    for field in sorted(FIELDS):
        case = (FILE_INOS[0], [(field, FIXED.get(field, 2**32 - 1))])
        test = example(sizes=[13 * PAGE_SIZE] * 6, case=case)(test)
    return test


def build(sizes):
    """Format, populate and cleanly unmount a volume; returns its device,
    the subdirectory's i-node, ``{path: (ino, bytes)}`` and each
    i-node's pointer blocks."""
    world = World()
    device = RamDevice(world.create_node("n").nucleus, "ram", 512)
    volume = Volume.mkfs(device, inode_count=64)
    root = volume.sb.root_ino
    subdir = volume.create(root, "d", FileType.DIRECTORY).ino
    files = {}
    for index, size in enumerate(sizes):
        parent, path = (root, f"f{index}") if index < 3 else (subdir, f"d/f{index}")
        ino = volume.create(parent, path.rsplit("/", 1)[-1], FileType.REGULAR).ino
        # 0xA0.. bytes: read as a pointer, a data block is out of range.
        data = bytes([0xA0 + index]) * size
        volume.write_data(ino, 0, data)
        files[path] = (ino, data)
    pointer_blocks = {
        inode.ino: {block for fb, block, _, _ in volume._walk(inode) if fb is None}
        for inode in volume._inodes
        if inode.allocated
    }
    volume.unmount()
    return device, subdir, files, pointer_blocks


def mutate(device, layout, ino, field, value):
    """Write ``value`` over ``field`` of i-node ``ino`` on the device;
    ``layout`` is a volume mounted from it, for where the i-node lives."""
    block, group, _ = layout._inode_table_block(ino)
    slot = (ino - group.ino_base) % (layout.sb.block_size // INODE_SIZE)
    raw = bytearray(device.read_block(block))
    offset, fmt = FIELDS[field]
    struct.pack_into(fmt, raw, slot * INODE_SIZE + offset, value)
    device.write_block(block, bytes(raw))


class TestFsckRepairsOneCorruptInode:
    @given(
        sizes=st.lists(
            st.integers(PAGE_SIZE // 2, 21 * PAGE_SIZE), min_size=6, max_size=6
        ),
        case=cases,
    )
    @every_field
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_repair_converges_and_spares_the_rest(self, sizes, case):
        device, subdir, files, pointer_blocks = build(sizes)
        assert sorted(file_ino for file_ino, _ in files.values()) == list(FILE_INOS)
        layout = Volume.mount(device)
        ino, mutations = case
        others = set().union(
            *(blocks for owner, blocks in pointer_blocks.items() if owner != ino)
        )
        for field, value in mutations:
            assume(not (field.endswith("indirect") and value in others))
            mutate(device, layout, ino, field, value)

        try:
            volume = Volume.mount(device)
        except StorageError:
            return  # a mount may refuse an image, with a typed error
        volume.fsck(repair=True)  # and fsck may not raise at all
        assert volume.fsck() == []
        walked = {
            block
            for inode in volume._inodes
            if inode.allocated
            for _, block, _, _ in volume._walk(inode)
        }
        assert walked == volume.allocator._used
        for path, (file_ino, data) in files.items():
            if file_ino == ino or (path.startswith("d/") and ino == subdir):
                continue
            parent = subdir if path.startswith("d/") else volume.sb.root_ino
            assert volume.lookup(parent, path.rsplit("/", 1)[-1]) == file_ino
            assert volume.read_data(file_ino, 0, len(data) + 1) == data
