"""The cache-side channel operations (paper Appendix A) that no runner
sends, driven the way a lower pager sends them: through the downstream
cache object (:class:`repro.fs.base.LayerFsCache`) of each layer kind
that keeps one.

The caching layers are the coherency layer, CRYPTFS, COMPFS and CFS;
DFS is the coherent pass-through, whose table is the
:class:`repro.fs.base.ChannelOps` defaults.  Every layer sits over a
two-domain SFS and exports a two-page file (``a`` then ``b``).  A VMM
above it maps the file read-write and has page 1 clean read-only and
page 0 dirty (``U`` written over it).  For CFS the VMM's bind goes past
the layer to the remote DFS; CFS holds no pages and no holders.

Each case records four things: what the op returned, the layer's own
page store, the VMM's pages above (both as ``{page: (writable,
dirty)}``), and which cache-side ops reached the VMM.

Every layer that keeps holders answers a recall (``flush_back``,
``deny_writes``, ``write_back``) by recalling its holder above first:
the VMM gives its dirty page up, and the layer returns it in the form
the layer below stores (CRYPTFS re-encrypts it; COMPFS folds it into its
plaintext and returns nothing, since it holds the compressed image
read-only).  The entry points are one template in
:class:`repro.fs.base.ChannelOps` that no layer overrides.
"""

import importlib
import pkgutil

import pytest

import repro
from repro.fs.base import ChannelOps
from repro.fs.cfs import start_cfs
from repro.fs.compfs import CompFs, unpack_compressed
from repro.fs.cryptfs import CryptFs, xor_block
from repro.fs.dfs import export_dfs, mount_remote
from repro.fs.sfs import create_sfs
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights
from repro.world import World

RO = AccessRights.READ_ONLY
RW = AccessRights.READ_WRITE

#: ``(writable, dirty)`` of one cached page.
CLEAN_RW, DIRTY_RW, CLEAN_RO = (True, False), (True, True), (False, False)
#: The VMM above before any op: page 0 written, page 1 only read.
ABOVE = {0: DIRTY_RW, 1: CLEAN_RO}
#: The coherency layer's and CRYPTFS's store before any op.
STORE = {0: CLEAN_RW, 1: CLEAN_RW}
#: COMPFS's whole-file plaintext store before any op.
COMP_STORE = {0: DIRTY_RW, 1: DIRTY_RW}

TWO_PAGES = (0, 2 * PAGE_SIZE)
ARGS = {
    "flush_back": TWO_PAGES,
    "deny_writes": TWO_PAGES,
    "write_back": TWO_PAGES,
    "delete_range": TWO_PAGES,
    "zero_fill": (0, PAGE_SIZE),
    "populate": (0, PAGE_SIZE, RO, b"P" * PAGE_SIZE),
    "destroy_cache": (),
    "invalidate_attributes": (),
    "write_back_attributes": (),
    "held_blocks": (),
}

#: layer kind -> op -> (returned, store after, VMM above after, ops the
#: VMM received).  ``returned`` is the sorted page indices of a page
#: dict, else the value itself.
EXPECTED = {
    "coherency": {
        "flush_back": ([0], {}, {}, ["flush_back"]),
        "deny_writes": (
            [0], {0: CLEAN_RO, 1: CLEAN_RO}, {0: CLEAN_RO, 1: CLEAN_RO},
            ["deny_writes"],
        ),
        "write_back": ([0], STORE, {0: CLEAN_RW, 1: CLEAN_RO}, ["write_back"]),
        "delete_range": (None, {}, {}, ["delete_range"]),
        "zero_fill": (None, STORE, {1: CLEAN_RO}, ["delete_range"]),
        "populate": (None, {0: CLEAN_RO, 1: CLEAN_RW}, ABOVE, []),
        "destroy_cache": (None, {}, {}, ["delete_range"]),
        "invalidate_attributes": (None, STORE, ABOVE, []),
        "write_back_attributes": (None, STORE, ABOVE, []),
        "held_blocks": (STORE, STORE, ABOVE, []),
    },
    "cryptfs": {
        "flush_back": ([0], {}, {}, ["flush_back"]),
        "deny_writes": (
            [0], {0: CLEAN_RO, 1: CLEAN_RO}, {0: CLEAN_RO, 1: CLEAN_RO},
            ["deny_writes"],
        ),
        "write_back": ([0], STORE, {0: CLEAN_RW, 1: CLEAN_RO}, ["write_back"]),
        "delete_range": (None, {}, {}, ["delete_range"]),
        "zero_fill": (None, {1: CLEAN_RW}, {1: CLEAN_RO}, ["delete_range"]),
        "populate": (None, {1: CLEAN_RW}, ABOVE, []),
        "destroy_cache": (None, {}, {}, ["delete_range"]),
        "invalidate_attributes": (None, STORE, ABOVE, []),
        "write_back_attributes": (None, STORE, ABOVE, []),
        "held_blocks": (STORE, STORE, ABOVE, []),
    },
    "compfs": {
        "flush_back": ([], COMP_STORE, {}, ["flush_back"]),
        "deny_writes": (
            [], COMP_STORE, {0: CLEAN_RO, 1: CLEAN_RO}, ["deny_writes"]
        ),
        "write_back": ([], COMP_STORE, {0: CLEAN_RW, 1: CLEAN_RO}, ["write_back"]),
        "delete_range": (None, {}, {}, ["delete_range"]),
        "zero_fill": (None, {}, {}, ["delete_range"]),
        "populate": (None, COMP_STORE, ABOVE, []),
        "destroy_cache": (None, {}, {}, ["delete_range"]),
        "invalidate_attributes": (None, {}, {}, ["delete_range"]),
        "write_back_attributes": (None, COMP_STORE, ABOVE, []),
        "held_blocks": (COMP_STORE, COMP_STORE, ABOVE, []),
    },
    "cfs": {
        op: ([] if op in ("flush_back", "deny_writes", "write_back") else None,
             None, ABOVE, [])
        for op in ARGS
    },
    "dfs": {
        "flush_back": ([0], None, {}, ["flush_back"]),
        "deny_writes": ([0], None, {0: CLEAN_RO, 1: CLEAN_RO}, ["deny_writes"]),
        "write_back": ([0], None, {0: CLEAN_RW, 1: CLEAN_RO}, ["write_back"]),
        "delete_range": (None, None, {}, ["delete_range"]),
        "zero_fill": (None, None, {1: CLEAN_RO}, ["delete_range"]),
        "populate": (None, None, ABOVE, []),
        "destroy_cache": (None, None, {}, ["delete_range"]),
        "invalidate_attributes": (None, None, ABOVE, []),
        "write_back_attributes": (None, None, ABOVE, []),
        "held_blocks": (None, None, ABOVE, []),
    },
}
#: The ops after which a layer that cached the file's attributes (the
#: coherency layer, CFS) no longer does.
ATTRS_DROPPED_BY = ("destroy_cache", "invalidate_attributes")


def stacked(kind):
    """``(world, user, layer, file state, file, VMM mapping above)``."""
    world = World()
    server = world.create_node("server")
    sfs = create_sfs(server, BlockDevice(server.nucleus, "sd0", 4096))
    node, layer = server, sfs.coherency_layer
    if kind in ("cryptfs", "compfs"):
        layer = (CryptFs if kind == "cryptfs" else CompFs)(server.create_domain(kind))
        layer.stack_on(sfs.top)
    elif kind in ("cfs", "dfs"):
        layer = export_dfs(server, sfs.top)
        node = world.create_node("client")
        mount_remote(node, server, "dfs")
    user = world.create_user_domain(node)
    with user.activate():
        if kind in ("cfs", "dfs"):
            with world.create_user_domain(server).activate():
                layer.create_file("f").write(0, b"a" * PAGE_SIZE + b"b" * PAGE_SIZE)
            f = node.fs_context.resolve("dfs@server").resolve("f")
            if kind == "cfs":
                layer = start_cfs(node)
                f = layer.interpose(f)
        else:
            top = sfs.top if kind == "coherency" else layer
            f = top.create_file("f")
            f.write(0, b"a" * PAGE_SIZE + b"b" * PAGE_SIZE)
            f.sync()
        mapping = node.vmm.create_address_space("above").map(f, RW)
        mapping.read(PAGE_SIZE, 1)
        mapping.write(0, b"U")
        f.get_attributes()
    (state,) = layer._states.values()
    return world, user, layer, state, f, mapping


def sent_above(world, before):
    return sorted(
        key[len("vmm."):] for key in world.counters.delta_since(before)
        if key.startswith("vmm.")
    )


@pytest.mark.parametrize("op", list(ARGS))
@pytest.mark.parametrize("kind", list(EXPECTED))
def test_cache_side_op_from_below(kind, op):
    world, user, layer, state, _, mapping = stacked(kind)
    had_attrs = getattr(state, "attrs", None) is not None
    down = state.down_channel
    before = world.counters.snapshot()
    with user.activate():
        result = getattr(down.cache_object, op)(*ARGS[op])
    returned, store, above, sent = EXPECTED[kind][op]
    if op in ("flush_back", "deny_writes", "write_back"):
        assert sorted(result) == returned
        for index, page in result.items():
            if kind == "cryptfs":  # ciphertext, as the layer below keeps it
                page = xor_block(page, layer.key, index)
            assert bytes(page[:2]) == b"Ua"  # the holder's dirty page
    else:
        assert result == returned
    assert (state.store.held_blocks() if state.store is not None else None) == store
    assert mapping.cache.store.held_blocks() == above
    assert sent_above(world, before) == sent
    # Every op but held_blocks is one dispatch, counted under the layer.
    assert world.counters.delta_since(before).get(f"{layer.fs_type()}.{op}", 0) == (
        0 if op == "held_blocks" else 1
    )
    assert (state.down_channel is None) == (op == "destroy_cache")
    if had_attrs:
        assert (state.attrs is None) == (op in ATTRS_DROPPED_BY)
    if kind == "coherency" and op in ("zero_fill", "populate"):
        page = bytes(state.store.get(0).snapshot())
        assert page == (bytes(PAGE_SIZE) if op == "zero_fill" else b"P" * PAGE_SIZE)


@pytest.mark.parametrize("kind, op", [
    ("cryptfs", "flush_back"),
    ("cryptfs", "deny_writes"),
    ("cryptfs", "write_back"),
    ("compfs", "flush_back"),
])
def test_a_recall_reaches_the_holder_above(kind, op):
    """The holder above gets the same recall, and gives its dirty page
    up to it."""
    world, user, _, state, _, _ = stacked(kind)
    before = world.counters.snapshot()
    with user.activate():
        getattr(state.down_channel.cache_object, op)(*ARGS[op])
    assert sent_above(world, before) == [op]


def test_cryptfs_mapped_write_survives_a_writer_below(world, node, device, user):
    """A write through a mapping of a CRYPTFS file, not yet synced, then
    a write to another byte of the file below: the mapped bytes survive
    (the per-block MRSW protocol recalls them before granting the
    write)."""
    sfs = create_sfs(node, device)
    crypt = CryptFs(node.create_domain("crypt"))
    crypt.stack_on(sfs.top)
    with user.activate():
        f = crypt.create_file("f")
        f.write(0, b"a" * PAGE_SIZE)
        f.sync()
        mapping = node.vmm.create_address_space("above").map(f, RW)
        mapping.write(0, b"MAPPED")
        sfs.top.resolve("f").write(100, b"Z")
        mapping.cache.sync()
        assert f.read(0, 6) == b"MAPPED"


def test_compfs_writes_a_recalled_page_through_on_the_next_sync():
    """A flush from below recalls the VMM's dirty page into COMPFS's
    plaintext; the next sync compresses it into the file below."""
    world, user, layer, state, f, _ = stacked("compfs")
    with user.activate():
        state.down_channel.cache_object.flush_back(*TWO_PAGES)
        f.sync()
        assert f.read(0, 2) == b"Ua"
        below = layer.under.resolve("f")
        plaintext = unpack_compressed(below.read(0, below.get_length()))
    assert plaintext == b"U" + b"a" * (PAGE_SIZE - 1) + b"b" * PAGE_SIZE


CACHE_SIDE_ENTRY_POINTS = {
    "flush_back", "deny_writes", "write_back", "delete_range", "zero_fill",
    "populate", "destroy_cache",
}


def test_no_layer_overrides_a_cache_side_entry_point():
    """The seven entry points are the spine's template (holders above
    first, then the layer's ``give_back`` / ``forget``): no dispatch
    table under ``src/repro`` defines one of its own."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    tables, pending = [], [ChannelOps]
    while pending:
        subclasses = pending.pop().__subclasses__()
        pending += subclasses
        tables += [c for c in subclasses if c.__module__.startswith("repro.")]
    assert {c.__name__ for c in tables} >= {
        "CoherencyOps", "CryptOps", "CompOps", "CfsOps", "DiskOps", "RecoveringOps",
    }
    for table in tables:
        assert not CACHE_SIDE_ENTRY_POINTS & set(vars(table)), table


@pytest.mark.parametrize("kind", ["coherency", "cryptfs", "compfs", "dfs"])
def test_pager_side_ops_no_runner_sends(kind):
    """``write_out``: a holder pushes a page and keeps it read-only; the
    layer records it as a read-only holder and takes the data.  Then the
    holder reads the attributes and writes back a shorter length, which
    the layer applies."""
    world, user, layer, state, f, mapping = stacked(kind)
    channel = mapping.cache.channel
    pager = channel.pager_object
    with user.activate():
        pager.write_out([(0, PAGE_SIZE, b"W" * PAGE_SIZE)])
        assert state.holders.holders_of(0) == [(channel, RO)]
        assert world.counters.get(f"{layer.fs_type()}.write_out") == 1
        assert world.counters.get(f"{layer.fs_type()}.write_out.bytes") == PAGE_SIZE
        if kind == "coherency":
            assert state.store.held_blocks()[0] == DIRTY_RW
        assert f.read(0, 2) == b"WW"
        attrs = pager.attr_page_in()
        assert attrs.size == 2 * PAGE_SIZE
        attrs.size = PAGE_SIZE
        pager.attr_write_out(attrs)
        assert f.get_length() == PAGE_SIZE


@pytest.mark.parametrize("op", ["delete_range", "zero_fill"])
def test_a_compfs_change_from_below_reaches_the_vmm_once(op):
    """Every plaintext page is derived from the whole compressed image,
    so a change to any range of it makes the whole file above stale: the
    VMM gets one whole-file ``delete_range``, not the changed range (in
    the image's coordinates) and then the whole file."""
    world, user, _, state, _, mapping = stacked("compfs")
    before = world.counters.snapshot()
    with user.activate():
        # The first page of the image only: the VMM holds both pages.
        getattr(state.down_channel.cache_object, op)(0, PAGE_SIZE)
    assert world.counters.delta_since(before).get("vmm.delete_range") == 1
    assert mapping.cache.store.held_blocks() == {}
