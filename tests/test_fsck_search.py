"""Search, not examples: corrupt one i-node, or one superblock slot, of
a cleanly unmounted volume, then mount, ``fsck(repair=True)`` and
``fsck()``.

The volume (one cylinder group or four) holds a root, one directory
``d`` and six files of 1-21 pages (three in each directory).  One i-node
case mutates a regular file's type, nlink, size, one direct pointer, or
its indirect or double-indirect pointer (one to three of them), one to
three pointer fields of ``d``, or the type field of any i-node but the
root and the reserved i-node 0.  Whatever the bytes, mount raises
nothing but a ``StorageError``, fsck nothing, one repair converges (a
second ``fsck()`` finds nothing), the allocator holds exactly the blocks
the walks reach, and every file the case did not touch reads back
intact.

One superblock case writes one value over one slot, with the checksum
left stale or recomputed.  A stale checksum never mounts.  A recomputed
one mounts only if the geometry still agrees with itself, and then one
repair converges.

A pointer of ``d`` may land anywhere, so ``d``'s entries are read from
whatever block it names: a bitmap, an i-node table, a file's data, a
block off the device, or none (0, the superblock's block, is no
block).  Out of scope here (ROADMAP item 9): a directory block
corrupted in place, ``d``'s nlink and size, and the root (a directory
cycle and an unreadable directory have one test each, in
``test_storage_volume.py``).  So a regular file never becomes a
directory (its bytes would be read as entries), and an indirect pointer
never lands on another tree's pointer block (two trees sharing one:
which is rightful needs more than one i-node's view).

Every run starts with one fixed case per field (:func:`every_field`,
:func:`every_slot`) and one per kind of metadata block under ``d``'s
first pointer (:func:`every_metadata_block`), so each field is mutated
and each repair step runs even when the draws skew.  The fields and
their offsets come from the format's tables (``storage/ondisk.py``).
Tier-1 runs the default profile; the chaos job runs
``--hypothesis-profile=deep``.
"""

import struct

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.block_device import RamDevice
from repro.storage.inode import INODE_SIZE, FileType
from repro.storage.layout import SuperBlock
from repro.storage.ondisk import INODE, SUPERBLOCK
from repro.storage.volume import Volume
from repro.types import PAGE_SIZE
from repro.world import World

#: (byte offset, struct code) of each i-node field the search mutates;
#: each slot of ``direct`` is a field of its own.
FIELDS = {
    field: INODE.offsets[field]
    for field in ("type", "nlink", "size", "indirect", "dbl_indirect")
}
DIRECT_AT, _ = INODE.offsets["direct"]
FIELDS.update({f"direct{slot}": (DIRECT_AT + 4 * slot, "I") for slot in range(12)})

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
#: A pointer field of ``d``: its entries are read from where it lands.
pointer_mutation = st.tuples(
    st.sampled_from(sorted(FIELDS.keys() - {"type", "nlink", "size"})), pointers
)
#: The six files, three in the root and three in ``d``.
PATHS = ["f0", "f1", "f2", "d/f3", "d/f4", "d/f5"]
#: ``(target, mutations)``: a type over any i-node (an ``int``) but the
#: root and the reserved i-node 0, one to three fields of one regular
#: file's (a path), or one to three pointer fields of ``d``'s.
cases = st.one_of(
    st.tuples(st.integers(2, 63), st.tuples(st.just("type"), types).map(lambda m: [m])),
    st.tuples(st.sampled_from(PATHS), st.lists(mutation, min_size=1, max_size=3)),
    st.tuples(st.just("d"), st.lists(pointer_mutation, min_size=1, max_size=3)),
)
#: One fixed value per field, for the case per field every run makes
#: before the search draws its own (which skews to some fields): an
#: unknown type, no link, one page long, a pointer off the device.
FIXED = {"type": 0x7777, "nlink": 0, "size": PAGE_SIZE}
#: Both layouts: the classic one group, and four.
GROUPS = (1, 4)
#: Thirteen pages, so every file has an indirect block.
FIXED_SIZES = [13 * PAGE_SIZE] * 6
#: The device and i-node table :func:`build` formats.
DEVICE_BLOCKS, INODES = 512, 64


def every_field(test):
    """Give ``test`` one explicit case per field and layout, on the first
    file of six."""
    for groups in GROUPS:
        for field in sorted(FIELDS):
            case = (PATHS[0], [(field, FIXED.get(field, 2**32 - 1))])
            test = example(sizes=FIXED_SIZES, groups=groups, case=case)(test)
    return test


def every_metadata_block(test):
    """Give ``test`` one explicit case per layout with ``d``'s first
    direct pointer on the superblock's block (0, no block), on the last
    group's bitmap and i-node table, and on the first block off the
    device."""
    for groups in GROUPS:
        last = SuperBlock.compute(PAGE_SIZE, DEVICE_BLOCKS, INODES, groups).groups()[-1]
        for block in (0, last.bitmap_start, last.inode_start, DEVICE_BLOCKS):
            case = ("d", [("direct0", block)])
            test = example(sizes=FIXED_SIZES, groups=groups, case=case)(test)
    return test


def build(sizes, groups):
    """Format a volume of ``groups`` cylinder groups, populate it and
    unmount it cleanly; returns its device, the subdirectory's i-node,
    ``{path: (ino, bytes)}`` and each i-node's pointer blocks."""
    world = World()
    device = RamDevice(world.create_node("n").nucleus, "ram", DEVICE_BLOCKS)
    volume = Volume.mkfs(device, inode_count=INODES, cylinder_groups=groups)
    root = volume.sb.root_ino
    subdir = volume.create(root, "d", FileType.DIRECTORY).ino
    files = {}
    for index, (size, path) in enumerate(zip(sizes, PATHS)):
        parent = subdir if path.startswith("d/") else root
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
    offset, code = FIELDS[field]
    struct.pack_into("<" + code, raw, slot * INODE_SIZE + offset, value)
    device.write_block(block, bytes(raw))


def assert_converged(volume):
    """A second ``fsck()`` finds nothing, and the allocator holds exactly
    the blocks the walks reach."""
    assert volume.fsck() == []
    walked = {
        block
        for inode in volume._inodes
        if inode.allocated
        for _, block, _, _ in volume._walk(inode)
    }
    assert walked == volume.allocator._used


class TestFsckRepairsOneCorruptInode:
    @given(
        sizes=st.lists(
            st.integers(PAGE_SIZE // 2, 21 * PAGE_SIZE), min_size=6, max_size=6
        ),
        groups=st.sampled_from(GROUPS),
        case=cases,
    )
    @every_field
    @every_metadata_block
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_repair_converges_and_spares_the_rest(self, sizes, groups, case):
        device, subdir, files, pointer_blocks = build(sizes, groups)
        layout = Volume.mount(device)
        target, mutations = case
        if isinstance(target, int):
            ino = target
        else:
            ino = subdir if target == "d" else files[target][0]
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
        assert_converged(volume)
        for path, (file_ino, data) in files.items():
            if file_ino == ino or (path.startswith("d/") and ino == subdir):
                continue
            parent = subdir if path.startswith("d/") else volume.sb.root_ino
            assert volume.lookup(parent, path.rsplit("/", 1)[-1]) == file_ino
            assert volume.read_data(file_ino, 0, len(data) + 1) == data


#: Superblock values: small ones land near the real geometry, large ones
#: far off it.
slot_values = st.one_of(st.integers(0, 600), st.integers(0, 2**32 - 1))
#: One fixed value per slot: no cylinder group, a device one block
#: short, fewer i-nodes that still fill a one-group table; else all ones.
SLOT_FIXED = {"cg_count": 0, "num_blocks": 511, "inode_count": 40}


def every_slot(test):
    """Give ``test`` one explicit case per superblock slot and layout,
    the checksum recomputed (for the checksum slot itself: left stale)."""
    for groups in GROUPS:
        for slot in SUPERBLOCK.fields:
            value = SLOT_FIXED.get(slot, 2**32 - 1)
            rechecksum = slot != "checksum"
            test = example(groups=groups, slot=slot, value=value, rechecksum=rechecksum)(
                test
            )
    return test


class TestMountRefusesAnInconsistentSuperblock:
    @given(
        groups=st.sampled_from(GROUPS),
        slot=st.sampled_from(SUPERBLOCK.fields),
        value=slot_values,
        rechecksum=st.booleans(),
    )
    @every_slot
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_refused_or_repaired(self, groups, slot, value, rechecksum):
        device, _, _, _ = build(FIXED_SIZES, groups)
        raw = bytearray(device.peek(0))
        offset, code = SUPERBLOCK.offsets[slot]
        assume(struct.unpack_from("<" + code, raw, offset)[0] != value)
        struct.pack_into("<" + code, raw, offset, value)
        if rechecksum:
            fields = SUPERBLOCK.unpack(raw)
            total = sum(fields.values()) - fields["checksum"]
            offset, code = SUPERBLOCK.offsets["checksum"]
            struct.pack_into("<" + code, raw, offset, total & 0xFFFFFFFF)
        device.write_block(0, bytes(raw))

        try:
            volume = Volume.mount(device)
        except StorageError:
            return  # refused, with a typed error
        assert rechecksum, "a superblock with a stale checksum mounted"
        volume.fsck(repair=True)
        assert_converged(volume)
