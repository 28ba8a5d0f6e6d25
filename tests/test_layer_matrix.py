"""Composition matrix: the same POSIX workload runs unchanged over
every layer type — the architecture's core claim that "as long as the
interface of the new layer conforms to the interface of a file system,
clients will view the new layer as a file system, regardless of how it
is implemented"."""

import contextlib

import pytest

from repro.bench.workloads import pattern_bytes
from repro.dfs.cluster import create_sharded_dfs
from repro.errors import InvalidNameError, OutOfRangeError, UnixError
from repro.fs.coherency import CoherencyLayer
from repro.fs.file import File
from repro.fs.cfs import start_cfs
from repro.fs.compfs import CompFs
from repro.fs.cryptfs import CryptFs
from repro.fs.dfs import export_dfs, mount_remote
from repro.fs.mirrorfs import MirrorFs
from repro.fs.nullfs import NullFs
from repro.fs.quotafs import QuotaFs
from repro.fs.sfs import create_sfs
from repro.fs.stack import layer_op_breakdown, stack_layers
from repro.ipc.domain import Credentials
from repro.ipc.narrow import narrow
from repro.ipc.transport import ServerThread, SocketTransport
from repro.naming.context import NamingContext
from repro.storage.block_device import RamDevice
from repro.types import PAGE_SIZE, AccessRights
from repro.serve import FileService
from repro.unix import O_CREAT, O_RDONLY, O_RDWR, Posix
from repro.vm.page import PageStore
from repro.world import World


def _stack(kind: str):
    """Build a (root context, client domain) pair for each stack kind."""
    world = World()
    node = world.create_node("matrix")
    device = RamDevice(node.nucleus, "ram", 16384)
    sfs = create_sfs(node, device)
    user = world.create_user_domain(node)

    def layer(cls, **kwargs):
        instance = cls(
            node.create_domain(kind, Credentials(kind, True)), **kwargs
        )
        instance.stack_on(sfs.top)
        return instance

    if kind == "sfs":
        return sfs.top, user
    if kind == "sfs-uncached":
        node3 = world.create_node("uncached-node")
        uncached = create_sfs(
            node3, RamDevice(node3.nucleus, "ram", 16384), cache=False
        )
        return uncached.top, world.create_user_domain(node3)
    if kind == "mono":
        node2 = world.create_node("mono-node")
        mono = create_sfs(
            node2, RamDevice(node2.nucleus, "ram", 16384),
            placement="not_stacked",
        )
        return mono.top, world.create_user_domain(node2)
    if kind == "nullfs":
        return layer(NullFs), user
    if kind == "compfs":
        return layer(CompFs), user
    if kind == "cryptfs":
        return layer(CryptFs, key=b"matrix"), user
    if kind == "quotafs":
        return layer(QuotaFs, budget_bytes=10**9), user
    if kind == "mirrorfs":
        device_b = RamDevice(node.nucleus, "ram-b", 16384)
        sfs_b = create_sfs(node, device_b, name="sfs-b")
        mirror = MirrorFs(node.create_domain("mir", Credentials("m", True)))
        mirror.stack_on(sfs.top)
        mirror.stack_on(sfs_b.top)
        return mirror, user
    if kind == "dfs-remote":
        client = world.create_node("client")
        dfs = export_dfs(node, sfs.top)
        mount_remote(client, node, "dfs")
        cu = world.create_user_domain(client, "cu")
        with cu.activate():
            root = client.fs_context.resolve("dfs@server".replace("server", node.name))
        return root, cu
    if kind == "sharded":
        cluster = create_sharded_dfs(world)
        return cluster.layer, world.create_user_domain(cluster.client)
    raise ValueError(kind)


def _go_cold(root, user) -> None:
    """Everything down to the device, then every cache between ``root``
    and the device dropped and the volume re-mounted: the next read is
    served from the blocks alone."""
    with user.activate():
        root.sync_fs()
    for layer in stack_layers(root):
        for state in getattr(layer, "_states", {}).values():
            for value in vars(state).values():
                if isinstance(value, PageStore):
                    value.clear()
            if hasattr(state, "streams"):
                state.streams.reset()
            if hasattr(state, "plain_size"):
                state.plain_size = None  # compfs: plaintext not loaded
        if hasattr(layer, "remount"):
            layer.remount()


def posix_error_script(fs):
    """Every way a path can be wrong, as ``[(call, UnixError.code)]``.
    ``fs`` is a :class:`Posix` or anything with its path calls (a
    ``FileService`` stub across the socket).  ``f`` is a regular file,
    ``d`` a non-empty directory, ``nodir`` does not exist."""
    fs.close(fs.open("f", O_RDWR | O_CREAT))
    fs.mkdir("d")
    fs.close(fs.open("d/inner", O_RDWR | O_CREAT))
    calls = [
        ("open f/x", fs.open, "f/x"),
        ("stat f/x", fs.stat, "f/x"),
        ("open f/x O_CREAT", fs.open, "f/x", O_RDWR | O_CREAT),
        ("listdir f/x", fs.listdir, "f/x"),
        ("listdir f", fs.listdir, "f"),
        ("mkdir f/d", fs.mkdir, "f/d"),
        ("unlink f/x", fs.unlink, "f/x"),
        ("open nodir/x O_CREAT", fs.open, "nodir/x", O_RDWR | O_CREAT),
        ("mkdir nodir/d", fs.mkdir, "nodir/d"),
        ("unlink nodir/x", fs.unlink, "nodir/x"),
        ("unlink absent", fs.unlink, "absent"),
        ("listdir nodir", fs.listdir, "nodir"),
        ("rename nodir/a nodir/b", fs.rename, "nodir/a", "nodir/b"),
        ("rename absent x", fs.rename, "absent", "x"),
        ("stat absent", fs.stat, "absent"),
        ("mkdir f", fs.mkdir, "f"),
        ("mkdir d", fs.mkdir, "d"),
        ("rename f d", fs.rename, "f", "d"),
        ("open ''", fs.open, ""),
        ("stat a//b", fs.stat, "a//b"),
        ("open d", fs.open, "d"),
        ("unlink d", fs.unlink, "d"),
    ]
    seen = []
    for label, call, *args in calls:
        with pytest.raises(UnixError) as raised:
            call(*args)
        seen.append((label, raised.value.code))
    # Nothing above changed the tree.
    assert sorted(fs.listdir("")) == ["d", "f"]
    assert sorted(fs.listdir("d")) == ["inner"]
    return seen


POSIX_ERRORS = [
    ("open f/x", "ENOTDIR"),
    ("stat f/x", "ENOTDIR"),
    ("open f/x O_CREAT", "ENOTDIR"),
    ("listdir f/x", "ENOTDIR"),
    ("listdir f", "ENOTDIR"),
    ("mkdir f/d", "ENOTDIR"),
    ("unlink f/x", "ENOTDIR"),
    ("open nodir/x O_CREAT", "ENOENT"),
    ("mkdir nodir/d", "ENOENT"),
    ("unlink nodir/x", "ENOENT"),
    ("unlink absent", "ENOENT"),
    ("listdir nodir", "ENOENT"),
    ("rename nodir/a nodir/b", "ENOENT"),
    ("rename absent x", "ENOENT"),
    ("stat absent", "ENOENT"),
    ("mkdir f", "EEXIST"),
    ("mkdir d", "EEXIST"),
    ("rename f d", "EEXIST"),
    ("open ''", "EINVAL"),
    ("stat a//b", "EINVAL"),
    ("open d", "EISDIR"),
    ("unlink d", "ENOTEMPTY"),
]


def posix_argument_script(fs):
    """Every negative size, offset and length a call can be handed is
    ``EINVAL`` and leaves the ten-byte file it was aimed at unchanged.
    ``fs`` as for :func:`posix_error_script`."""
    fd = fs.open("f", O_RDWR | O_CREAT)
    fs.pwrite(fd, b"0123456789", 0)
    for call, *args in [
        (fs.read, fd, -1),
        (fs.pread, fd, -1, 0),
        (fs.pread, fd, 4, -4),
        (fs.pwrite, fd, b"ZZZZZZ", -3),
        (fs.ftruncate, fd, -1),
        (fs.lseek, fd, -1),
    ]:
        with pytest.raises(UnixError) as raised:
            call(*args)
        assert raised.value.code == "EINVAL", (call.__name__, args)
    assert fs.fstat(fd).size == 10
    assert fs.pread(fd, 100, 0) == b"0123456789"
    fs.fsync(fd)
    fs.close(fd)


def posix_rename_script(fs):
    """A rename inside one subdirectory moves the name; one between two
    directories is ``EXDEV`` and moves nothing."""
    fs.mkdir("d")
    fs.mkdir("e")
    fd = fs.open("d/a", O_RDWR | O_CREAT)
    fs.pwrite(fd, b"payload", 0)
    fs.close(fd)
    fs.rename("d/a", "d/b")
    assert fs.listdir("d") == ["b"]
    assert fs.stat("d/b").size == 7
    for new in ("e/b", "b"):
        with pytest.raises(UnixError) as refused:
            fs.rename("d/b", new)
        assert refused.value.code == "EXDEV"
    assert (fs.listdir("d"), fs.listdir("e")) == (["b"], [])
    assert sorted(fs.listdir("")) == ["d", "e"]


def settle(root, user):
    """Everything down to the device and every volume under ``root``
    cleanly unmounted; returns what ``fsck`` then finds."""
    with user.activate():
        root.sync_fs()
    findings = []
    for layer in stack_layers(root):
        if hasattr(layer, "unmount"):
            layer.unmount()
            findings += layer.volume.fsck()
    return findings


KINDS = [
    "sfs",
    "mono",
    "nullfs",
    "compfs",
    "cryptfs",
    "quotafs",
    "mirrorfs",
    "dfs-remote",
]


@pytest.mark.parametrize("kind", KINDS)
class TestSameWorkloadEverywhere:
    def test_posix_session(self, kind):
        root, user = _stack(kind)
        posix = Posix(root, user)
        payload = pattern_bytes(2 * PAGE_SIZE + 123, tag=7)

        fd = posix.open("doc.bin", O_RDWR | O_CREAT)
        assert posix.write(fd, payload) == len(payload)
        assert posix.fstat(fd).size == len(payload)
        posix.lseek(fd, 0)
        assert posix.read(fd, len(payload)) == payload
        posix.fsync(fd)
        posix.close(fd)

        fd = posix.open("doc.bin", O_RDONLY)
        assert posix.pread(fd, 100, PAGE_SIZE) == payload[PAGE_SIZE : PAGE_SIZE + 100]
        posix.close(fd)

        fd = posix.open("doc.bin", O_RDWR)
        posix.ftruncate(fd, 100)
        assert posix.fstat(fd).size == 100
        posix.close(fd)

        assert "doc.bin" in posix.listdir()
        posix.unlink("doc.bin")
        assert posix.listdir() == []

    def test_overwrite_and_extend(self, kind):
        root, user = _stack(kind)
        posix = Posix(root, user)
        fd = posix.open("grow.bin", O_RDWR | O_CREAT)
        posix.write(fd, b"aaaa")
        posix.pwrite(fd, b"BB", 2)
        posix.pwrite(fd, b"tail", 10)
        assert posix.pread(fd, 14, 0) == b"aaBB" + bytes(6) + b"tail"

    def test_many_small_files(self, kind):
        root, user = _stack(kind)
        posix = Posix(root, user)
        for i in range(10):
            fd = posix.open(f"f{i}.dat", O_RDWR | O_CREAT)
            posix.write(fd, pattern_bytes(100 + i, tag=i))
            posix.close(fd)
        for i in range(10):
            assert posix.stat(f"f{i}.dat").size == 100 + i
            fd = posix.open(f"f{i}.dat", O_RDONLY)
            assert posix.read(fd, 200) == pattern_bytes(100 + i, tag=i)
            posix.close(fd)

    @pytest.mark.parametrize("bad", ["a/b", ""])
    def test_bad_component_rejected_the_same_way(self, kind, bad):
        """A binding name is one component: no layer — stacked or fused,
        on its root or in a subdirectory — may create, remove or rename
        to an entry that no ``resolve`` can reach."""
        root, user = _stack(kind)
        with user.activate():
            sub = root.create_dir("d")
            for directory in (root, sub):
                directory.create_file("ok")
                for op in (directory.create_file, directory.create_dir,
                           directory.unbind):
                    with pytest.raises(InvalidNameError):
                        op(bad)
                if kind != "mirrorfs":  # mirrorfs has no rename
                    with pytest.raises(InvalidNameError):
                        directory.rename("ok", bad)
            assert [name for name, _ in root.list_bindings()] == ["d", "ok"]
            assert [name for name, _ in sub.list_bindings()] == ["ok"]

    def test_list_bindings_yields_objects(self, kind):
        """``list_bindings`` returns ``(name, object)`` pairs — files and
        contexts, not i-node numbers — on the root and below it."""
        root, user = _stack(kind)
        with user.activate():
            sub = root.create_dir("d")
            root.create_file("b")
            sub.create_file("inner")
            sub.create_dir("deeper")
            for directory, expected in (
                (root, {"b": File, "d": NamingContext}),
                (sub, {"deeper": NamingContext, "inner": File}),
            ):
                listed = directory.list_bindings()
                assert [name for name, _ in listed] == sorted(expected)
                for name, obj in listed:
                    assert narrow(obj, expected[name]) is not None, (name, obj)

    def test_unbind_returns_the_file(self, kind):
        """``unbind`` hands back the object the name was bound to — a
        file narrows to ``File`` — on every stack, fused or stacked."""
        root, user = _stack(kind)
        with user.activate():
            sub = root.create_dir("d")
            for directory in (root, sub):
                directory.create_file("gone")
                assert narrow(directory.unbind("gone"), File) is not None
            assert [name for name, _ in sub.list_bindings()] == []

    def test_posix_errors_are_errnos(self, kind):
        """No raw Spring error leaves the facade, and no stack disagrees
        about which errno a bad path is."""
        root, user = _stack(kind)
        assert posix_error_script(Posix(root, user)) == POSIX_ERRORS

    def test_negative_arguments_are_einval(self, kind):
        """A negative size, offset or length is refused at the facade on
        every stack, and the volume underneath can still be flushed."""
        root, user = _stack(kind)
        posix_argument_script(Posix(root, user))
        assert settle(root, user) == []

    def test_negative_offsets_are_out_of_range(self, kind):
        """A Spring client inside the process that hands a file a
        negative offset is refused by the first page cache the bytes
        reach — one page or several, read or write — instead of getting
        Python's slice semantics: nothing is read from the end of the
        previous page, no page -1 enters a store, and what the file
        held is still there and still flushes."""
        root, user = _stack(kind)
        held = b"A" * (2 * PAGE_SIZE + 10)
        with user.activate():
            handle = root.create_file("f")
            handle.write(0, held)
            for call, *args in [
                (handle.read, -1, 10),
                (handle.read, -PAGE_SIZE - 8, 4),
                (handle.write, -5, b"zz"),
                (handle.write, -3, b"z" * (PAGE_SIZE + 9)),
            ]:
                with pytest.raises(OutOfRangeError):
                    call(*args)
            assert handle.read(0, 4 * PAGE_SIZE) == held
        for layer in stack_layers(root):
            for state in getattr(layer, "_states", {}).values():
                for value in vars(state).values():
                    if isinstance(value, PageStore):
                        assert [i for i, _ in value.pages() if i < 0] == []
        assert settle(root, user) == []

    def test_a_refused_write_leaves_the_length_unchanged(self, kind):
        """A write the stack refuses changes nothing — not the bytes and
        not the length, even when the refused range ends past EOF."""
        root, user = _stack(kind)
        with user.activate():
            handle = root.create_file("f")
            handle.write(0, b"x" * 100)
            with pytest.raises(OutOfRangeError):
                handle.write(-2, b"y" * 200)
            assert handle.get_length() == 100
            assert handle.read(0, 300) == b"x" * 100
        assert settle(root, user) == []

    def test_rename_below_the_root(self, kind):
        if kind == "mirrorfs":
            pytest.skip("mirrorfs has no rename")
        root, user = _stack(kind)
        posix_rename_script(Posix(root, user))
        assert settle(root, user) == []

    @pytest.mark.parametrize("through_cache", [False, True])
    def test_multi_page_session(self, kind, through_cache, request):
        """Multi-page reads and writes — demanded below by the run —
        give the same bytes and the same errors on every stack.  With
        ``through_cache`` the session runs through a coherency layer
        stacked on top of the kind, whose run faults ask the kind's own
        ``page_in`` for more than a page at a time."""
        root, user = _stack(kind)
        if through_cache:
            if kind == "mirrorfs":
                pytest.skip("mirrorfs refuses the writable bind a cache needs")
            if kind == "cryptfs":
                request.applymarker(pytest.mark.xfail(strict=True, reason=(
                    "CRYPTFS decrypts the zero-fill a page-in past EOF gets "
                    "from below as if it were ciphertext (ROADMAP item 2)"
                )))
            top = CoherencyLayer(
                user.node.create_domain("top", Credentials("top", True))
            )
            top.stack_on(root)
            root = top
        posix = Posix(root, user)
        model = bytearray()

        def pwrite(data, offset):
            assert posix.pwrite(fd, data, offset) == len(data)
            if offset > len(model):
                model.extend(bytes(offset - len(model)))
            model[offset : offset + len(data)] = data

        def check_whole():
            assert posix.fstat(fd).size == len(model)
            assert posix.pread(fd, len(model) + PAGE_SIZE, 0) == bytes(model)

        fd = posix.open("bulk.bin", O_RDWR | O_CREAT)
        pwrite(pattern_bytes(5 * PAGE_SIZE + 77, tag=11), 123)  # unaligned, 6 pages
        check_whole()
        pwrite(pattern_bytes(PAGE_SIZE + 10, tag=12), PAGE_SIZE - 5)  # three pages
        check_whole()
        posix.ftruncate(fd, 2 * PAGE_SIZE + 1000)  # into the middle of a page
        del model[2 * PAGE_SIZE + 1000 :]
        check_whole()
        posix.ftruncate(fd, 4 * PAGE_SIZE + 9)  # ...then out again: zeros
        model.extend(bytes(4 * PAGE_SIZE + 9 - len(model)))
        check_whole()
        pwrite(pattern_bytes(3 * PAGE_SIZE, tag=13), 3 * PAGE_SIZE + 1)  # extends
        check_whole()
        assert posix.pread(fd, 2 * PAGE_SIZE, len(model)) == b""
        assert posix.pread(fd, 2 * PAGE_SIZE, len(model) - 10) == bytes(model[-10:])
        posix.fsync(fd)
        posix.close(fd)

        _go_cold(root, user)
        fd = posix.open("bulk.bin", O_RDONLY)
        check_whole()  # one cold read of the whole file
        assert posix.pread(fd, 2 * PAGE_SIZE + 3, PAGE_SIZE - 1) == bytes(
            model[PAGE_SIZE - 1 : 3 * PAGE_SIZE + 2]
        )
        with pytest.raises(UnixError) as refused:
            posix.pwrite(fd, b"x" * (2 * PAGE_SIZE), 0)
        assert refused.value.code == "EBADF"
        with pytest.raises(UnixError) as missing:
            posix.open("absent.bin", O_RDONLY)
        assert missing.value.code == "ENOENT"
        check_whole()


#: The stacks a VMM pages through: the eight kinds, the SFS with its
#: coherency layer not caching, and the sharded DFS.
PAGING_KINDS = KINDS + ["sfs-uncached", "sharded"]

#: The data operations of the pager side of a channel, as the spine
#: counts them (``<layer>.<op>``).
_DATA_OPS = ("page_in", "page_in_range", "page_out", "write_out", "sync")


def _channel_census(root, transfers):
    """What the stack under ``root`` did since its world's counters
    were reset and ``transfers`` (``_device_transfers`` then) was
    taken: every layer's count of each pager-side data operation
    (:func:`layer_op_breakdown`), the sharded layer's sink, and the
    device reads and writes underneath."""
    census = {
        f"{fs}.{op}": count
        for fs, _, ops in layer_op_breakdown(root)
        for op, (count, _) in ops.items()
        if op in _DATA_OPS
    }
    counters = root.world.counters
    for key in ("shard.reads", "shard.quorum_writes"):
        if counters.get(key):
            census[key] = counters.get(key)
    reads, writes = _device_transfers(root)
    census["device.reads"] = reads - transfers[0]
    census["device.writes"] = writes - transfers[1]
    return census


def _device_transfers(root):
    devices = [
        layer.device for layer in stack_layers(root) if hasattr(layer, "device")
    ]
    return sum(d.reads for d in devices), sum(d.writes for d in devices)


#: A cold 16-page file scanned page by page through a mapping, VMM
#: read-ahead window 4: who saw a fault, who saw a window, and how many
#: transfers the device made.  Recorded at 433fecd; ``sfs-uncached``
#: again at fad6008 (the window goes below as one ``page_in``).
MAPPED_SCAN = {
    "sfs": {
        "coherency.page_in": 1, "coherency.page_in_range": 3,
        "disk.page_in": 4, "device.reads": 7, "device.writes": 0,
    },
    "mono": {
        "mono-sfs.page_in": 1, "mono-sfs.page_in_range": 15,
        "device.reads": 18, "device.writes": 0,
    },
    "nullfs": {
        "coherency.page_in": 1, "coherency.page_in_range": 3,
        "disk.page_in": 4, "device.reads": 7, "device.writes": 0,
    },
    "compfs": {
        "coherency.page_in_range": 1, "compfs.page_in": 1,
        "compfs.page_in_range": 3, "disk.page_in": 1, "device.reads": 2,
        "device.writes": 0,
    },
    "cryptfs": {
        "coherency.page_in": 4, "cryptfs.page_in": 1,
        "cryptfs.page_in_range": 3, "disk.page_in": 4, "device.reads": 7,
        "device.writes": 0,
    },
    "quotafs": {
        "coherency.page_in": 1, "coherency.page_in_range": 3,
        "disk.page_in": 4, "device.reads": 7, "device.writes": 0,
    },
    "mirrorfs": {
        "coherency.page_in": 1, "coherency.page_in_range": 3,
        "disk.page_in": 4, "device.reads": 8, "device.writes": 0,
    },
    "dfs-remote": {
        "coherency.page_in": 1, "coherency.page_in_range": 3, "dfs.page_in": 1,
        "dfs.page_in_range": 3, "disk.page_in": 4, "device.reads": 7,
        "device.writes": 0,
    },
    "sfs-uncached": {
        "coherency.page_in": 1, "coherency.page_in_range": 3,
        "disk.page_in": 4, "device.reads": 7, "device.writes": 0,
    },
    "sharded": {
        "shardfs.page_in": 1, "shardfs.page_in_range": 3, "shard.reads": 4,
        "device.reads": 1, "device.writes": 0,
    },
}


@pytest.mark.parametrize("kind", PAGING_KINDS)
def test_mapped_scan_with_readahead(kind):
    """A read-ahead window asked for by the VMM reaches — or stops at —
    the same layers with the same calls on every stack, and the bytes
    are the file's."""
    root, user = _stack(kind)
    payload = pattern_bytes(16 * PAGE_SIZE, tag=5)
    with user.activate():
        root.create_file("scan.bin").write(0, payload)
    _go_cold(root, user)
    vmm = user.node.vmm
    vmm.readahead_pages = 4
    root.world.counters.reset()
    transfers = _device_transfers(root)
    with user.activate():
        mapping = vmm.create_address_space("scan").map(
            root.resolve("scan.bin"), AccessRights.READ_ONLY
        )
        got = b"".join(
            mapping.read_copy(page * PAGE_SIZE, PAGE_SIZE) for page in range(16)
        )
    assert got == payload
    assert _channel_census(root, transfers) == MAPPED_SCAN[kind]


#: Pages stored through a writable mapping and ``sync``-ed, some stored
#: again and ``flush``-ed (``page_out``), then the file ``sync``-ed to
#: the device — by whether the stored pages are adjacent.  True: all
#: five, then the middle three — one run each time.  False: pages 0, 2
#: and 4, then 1 and 3 — every page a run of its own, so a clean gap
#: splits a call on every stack.  Recorded at fad6008.
MAPPED_WRITE = {
    ("sfs", False): {
        "coherency.page_in": 5, "coherency.page_out": 2, "coherency.sync": 3,
        "disk.page_in": 5, "disk.sync": 1, "device.reads": 6,
        "device.writes": 1,
    },
    ("sfs", True): {
        "coherency.page_in": 5, "coherency.page_out": 1, "coherency.sync": 1,
        "disk.page_in": 5, "disk.sync": 1, "device.reads": 6,
        "device.writes": 1,
    },
    ("mono", False): {
        "mono-sfs.page_in": 5, "mono-sfs.page_out": 2, "mono-sfs.sync": 3,
        "device.reads": 6, "device.writes": 6,
    },
    ("mono", True): {
        "mono-sfs.page_in": 5, "mono-sfs.page_out": 1, "mono-sfs.sync": 1,
        "device.reads": 6, "device.writes": 6,
    },
    ("nullfs", False): {
        "coherency.page_in": 5, "coherency.page_out": 2, "coherency.sync": 3,
        "disk.page_in": 5, "disk.sync": 1, "device.reads": 6,
        "device.writes": 1,
    },
    ("nullfs", True): {
        "coherency.page_in": 5, "coherency.page_out": 1, "coherency.sync": 1,
        "disk.page_in": 5, "disk.sync": 1, "device.reads": 6,
        "device.writes": 1,
    },
    ("compfs", False): {
        "coherency.page_in_range": 1, "compfs.page_in": 5,
        "compfs.page_out": 2, "compfs.sync": 3, "disk.page_in": 2,
        "disk.sync": 1, "device.reads": 4, "device.writes": 1,
    },
    ("compfs", True): {
        "coherency.page_in_range": 1, "compfs.page_in": 5,
        "compfs.page_out": 1, "compfs.sync": 1, "disk.page_in": 2,
        "disk.sync": 1, "device.reads": 4, "device.writes": 1,
    },
    ("cryptfs", False): {
        "coherency.page_in": 5, "coherency.sync": 5, "cryptfs.page_in": 5,
        "cryptfs.page_out": 2, "cryptfs.sync": 3, "disk.page_in": 5,
        "disk.sync": 1, "device.reads": 6, "device.writes": 1,
    },
    ("cryptfs", True): {
        "coherency.page_in": 5, "coherency.sync": 2, "cryptfs.page_in": 5,
        "cryptfs.page_out": 1, "cryptfs.sync": 1, "disk.page_in": 5,
        "disk.sync": 1, "device.reads": 6, "device.writes": 1,
    },
    ("quotafs", False): {
        "coherency.page_in": 5, "coherency.page_out": 2, "coherency.sync": 3,
        "disk.page_in": 5, "disk.sync": 1, "device.reads": 6,
        "device.writes": 1,
    },
    ("quotafs", True): {
        "coherency.page_in": 5, "coherency.page_out": 1, "coherency.sync": 1,
        "disk.page_in": 5, "disk.sync": 1, "device.reads": 6,
        "device.writes": 1,
    },
    ("dfs-remote", False): {
        "coherency.page_in": 5, "coherency.page_out": 5, "dfs.page_in": 5,
        "dfs.page_out": 2, "dfs.sync": 3, "disk.page_in": 5, "disk.sync": 1,
        "device.reads": 6, "device.writes": 1,
    },
    ("dfs-remote", True): {
        "coherency.page_in": 5, "coherency.page_out": 2, "dfs.page_in": 5,
        "dfs.page_out": 1, "dfs.sync": 1, "disk.page_in": 5, "disk.sync": 1,
        "device.reads": 6, "device.writes": 1,
    },
    ("sfs-uncached", False): {
        "coherency.page_in": 5, "coherency.page_out": 2, "coherency.sync": 3,
        "disk.page_in": 5, "disk.page_out": 5, "device.reads": 6,
        "device.writes": 6,
    },
    ("sfs-uncached", True): {
        "coherency.page_in": 5, "coherency.page_out": 1, "coherency.sync": 1,
        "disk.page_in": 5, "disk.page_out": 2, "device.reads": 6,
        "device.writes": 3,
    },
    ("sharded", False): {
        "shardfs.page_in": 5, "shardfs.page_out": 2, "shardfs.sync": 3,
        "shard.reads": 5, "shard.quorum_writes": 5, "device.reads": 1,
        "device.writes": 0,
    },
    ("sharded", True): {
        "shardfs.page_in": 5, "shardfs.page_out": 1, "shardfs.sync": 1,
        "shard.reads": 5, "shard.quorum_writes": 2, "device.reads": 1,
        "device.writes": 0,
    },
}


def _store_runs(mapping, model: bytearray, runs, tag: int) -> int:
    """Store fresh bytes through the mapping (and into the model), one
    ``write`` per ``(first page, pages)`` run; returns the pages stored."""
    for first, count in runs:
        span = slice(first * PAGE_SIZE, (first + count) * PAGE_SIZE)
        model[span] = pattern_bytes(count * PAGE_SIZE, tag=tag)
        mapping.write(first * PAGE_SIZE, bytes(model[span]))
    return sum(count for _, count in runs)


@pytest.mark.parametrize("adjacent", [False, True])
@pytest.mark.parametrize("kind", PAGING_KINDS)
def test_mapped_write_back(kind, adjacent):
    """Dirty pages written back by the VMM — a run at a time, which for
    pages with clean gaps between them is a page at a time; retained or
    not — go down every stack by the same calls, and a cold read finds
    them."""
    if kind == "mirrorfs":
        pytest.skip("mirrorfs refuses the writable bind a mapping needs")
    root, user = _stack(kind)
    model = bytearray(5 * PAGE_SIZE)
    with user.activate():
        root.create_file("dirty.bin").write(0, bytes(model))
    _go_cold(root, user)
    vmm = user.node.vmm
    if adjacent:
        first, again = [(0, 5)], [(1, 3)]
    else:
        first, again = [(0, 1), (2, 1), (4, 1)], [(1, 1), (3, 1)]
    root.world.counters.reset()
    transfers = _device_transfers(root)
    with user.activate():
        handle = root.resolve("dirty.bin")
        mapping = vmm.create_address_space("dirty").map(
            handle, AccessRights.READ_WRITE
        )
        stored = _store_runs(mapping, model, first, tag=6)
        assert mapping.cache.sync() == stored
        stored = _store_runs(mapping, model, again, tag=7)
        assert mapping.cache.flush() == stored
        handle.sync()
    assert _channel_census(root, transfers) == MAPPED_WRITE[kind, adjacent]
    _go_cold(root, user)
    with user.activate():
        assert root.resolve("dirty.bin").read(0, 6 * PAGE_SIZE) == bytes(model)


@contextlib.contextmanager
def served_sfs():
    """``(fs stub, root, user)``: an SFS behind ``FileService`` over
    ``SocketTransport``."""
    root, user = _stack("sfs")
    node = user.node
    server = node.serve()
    node.expose("fs", FileService(Posix(root, user)))
    thread = ServerThread(server)
    port = thread.start()
    client = SocketTransport(
        "127.0.0.1", port, dst=node.name,
        connect_timeout_s=2.0, reply_timeout_s=5.0,
    )
    try:
        yield client.bind("fs"), root, user
    finally:
        client.close()
        thread.stop()


def test_posix_errors_are_errnos_across_the_socket():
    """The same script through ``FileService`` over ``SocketTransport``:
    the client sees the same ``UnixError.code`` per case, not one
    exception class per layer that happened to raise."""
    with served_sfs() as (fs, _, _):
        assert posix_error_script(fs) == POSIX_ERRORS


def test_negative_arguments_are_einval_across_the_socket():
    """No argument a TCP client can send wedges the server: it answers
    ``EINVAL``, keeps answering, and its volume still flushes."""
    with served_sfs() as (fs, root, user):
        posix_argument_script(fs)
        assert fs.listdir("") == ["f"]
    assert settle(root, user) == []


def test_rename_below_the_root_across_the_socket():
    with served_sfs() as (fs, root, user):
        posix_rename_script(fs)
    assert settle(root, user) == []
