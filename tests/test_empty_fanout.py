"""A coherency fan-out with nobody to reach costs O(1).

The paper's per-block MRSW protocol and ``fs_cache`` attribute coherency
act only when another cache manager holds the file (sec. 6.2), which is
why stacking adds nothing measurable to a cached read, write or stat
(Table 2).  Here that means: a cached ``File.read``, ``write`` and
``get_attributes`` through the coherency layer run the same bytecode
whether the layer has no channel open or hundreds of channels of *other*
files, and the fan-outs still reach a holder when there is one — a
mapped writer above is recalled by a read below, a CFS above hears a
write below — with the same clock and counters as before the fast path
existed."""

import gc
import sys

import pytest

from repro.fs.cfs import start_cfs
from repro.fs.sfs import create_sfs
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights
from repro.world import World

OTHER_CHANNELS = 500


def opcodes(call, *args):
    """Bytecodes ``call(*args)`` executes, every frame it enters counted
    (``sys.settrace`` with opcode events)."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    # A collection inside the call would run callbacks of its own.
    gc.collect()
    gc.disable()
    sys.settrace(enter)
    try:
        call(*args)
    finally:
        sys.settrace(None)
        gc.enable()
    return count


def served_file(other_channels):
    """An SFS whose coherency layer serves ``other_channels`` VMM
    channels, one per other file, and a cached file nobody maps."""
    world = World()
    node = world.create_node("server")
    stack = create_sfs(node, BlockDevice(node.nucleus, "sd0", 8192))
    user = world.create_user_domain(node)
    with user.activate():
        aspace = node.vmm.create_address_space("others")
        for i in range(other_channels):
            other = stack.top.create_file(f"other{i}")
            other.write(0, b"o")
            aspace.map(other, AccessRights.READ_ONLY).read(0, 1)
        f = stack.top.create_file("target.dat")
        f.write(0, b"t" * PAGE_SIZE)
    assert len(stack.coherency_layer.channels) == other_channels
    return user, f


@pytest.mark.parametrize("op", ["read", "write", "get_attributes"])
def test_a_cached_op_costs_the_same_beside_other_files_channels(op):
    counts = []
    for other_channels in (0, OTHER_CHANNELS):
        user, f = served_file(other_channels)
        call = {
            "read": lambda: f.read(0, PAGE_SIZE),
            "write": lambda: f.write(0, b"w" * PAGE_SIZE),
            "get_attributes": f.get_attributes,
        }[op]
        with user.activate():
            call()  # warm: the page and the attributes are cached
            counts.append(opcodes(call))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# The slow arms: somebody to reach
# ---------------------------------------------------------------------------
def remote_world(compound):
    """An SFS on ``server`` holding one page of ``t``, and a second node
    whose VMM or CFS can hold it; the coherency layer's ``compound``
    knob as given."""
    world = World()
    server, client = world.create_node("server"), world.create_node("client")
    stack = create_sfs(server, BlockDevice(server.nucleus, "sd0", 8192))
    stack.coherency_layer.compound = compound
    su = world.create_user_domain(server)
    cu = world.create_user_domain(client)
    with su.activate():
        f = stack.top.create_file("target.dat")
        f.write(0, b"t" * PAGE_SIZE)
    return world, client, su, cu, f


def fanout_counters(world):
    """The counters a fan-out moves, then how many counters there are
    and what they sum to — which any other counter that moves changes."""
    snapshot = world.counters.snapshot()
    moved = {
        key: value for key, value in snapshot.items()
        if key.startswith(("compound.", "cfs.", "op.write_back", "vmm.write_back",
                           "op.invalidate_attributes"))
    }
    return moved, len(snapshot), sum(snapshot.values())


#: Clock and counters of each arm, as recorded before holder-less fan-outs
#: returned early: the fast path must not move them.
RECALL_ARM = {
    False: (68177.9640625, {"op.write_back": 1, "vmm.write_back": 1}, 28, 8247),
    True: (68177.9640625, {
        "compound.batched_ops": 1, "compound.batches": 1,
        "compound.messages_saved": 0, "op.write_back": 1, "vmm.write_back": 1,
    }, 32, 8249),
}
INVALIDATE_ARM = {
    False: (75437.82734375, {
        "cfs.attr_fetch": 2, "cfs.attr_invalidated": 1, "cfs.interposed": 1,
        "cfs.invalidate_attributes": 1, "cfs.write_back_attributes": 3,
        "op.invalidate_attributes": 1, "op.write_back_attributes": 3,
    }, 29, 8266),
    True: (75437.82734375, {
        "cfs.attr_fetch": 2, "cfs.attr_invalidated": 1, "cfs.interposed": 1,
        "cfs.invalidate_attributes": 1, "cfs.write_back_attributes": 3,
        "compound.batched_ops": 4, "compound.batches": 4,
        "compound.messages_saved": 0, "op.invalidate_attributes": 1,
        "op.write_back_attributes": 3,
    }, 33, 8274),
}


@pytest.mark.parametrize("compound", [False, True])
def test_a_read_below_recalls_a_mapped_writer_above(compound):
    world, client, su, cu, f = remote_world(compound)
    with cu.activate():
        mapping = client.vmm.create_address_space("w").map(
            f, AccessRights.READ_WRITE
        )
        mapping.write(0, b"m" * 8)
    with su.activate():
        assert f.read(0, 16) == b"m" * 8 + b"t" * 8
    clock, moved, keys, total = RECALL_ARM[compound]
    assert world.clock.now_us == clock
    assert fanout_counters(world) == (moved, keys, total)


@pytest.mark.parametrize("compound", [False, True])
def test_a_write_below_invalidates_a_cfs_above(compound):
    world, client, su, cu, f = remote_world(compound)
    cfs = start_cfs(client)
    with cu.activate():
        local = cfs.interpose(f)
        assert local.get_attributes().size == PAGE_SIZE
    with su.activate():
        f.write(PAGE_SIZE, b"grow")
    with cu.activate():
        assert local.get_attributes().size == PAGE_SIZE + 4
    clock, moved, keys, total = INVALIDATE_ARM[compound]
    assert world.clock.now_us == clock
    assert fanout_counters(world) == (moved, keys, total)
