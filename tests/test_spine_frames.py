"""The Python frames the invocation spine enters, pinned.

Every invocation runs the ``@operation`` wrapper, every charge
``SimClock.advance`` or ``SimClock.charge``, every received frame a
``FrameBuffer`` call; what else they enter is their cost.  A charge of
fixed cost enters ``SimClock.charge``, not ``advance``: its cost was
refused or accepted once, when the ``Charger`` bound it to its
category's account, so its frame neither checks the cost nor looks the
category up; the size-dependent charges of a disk transfer, a copy and
a network message check their cost in the ``Charger`` and then enter
``SimClock.charge`` too.  Bytecode counts differ between the
Python versions CI runs, frame counts do not (but for a comprehension,
which has a frame of its own only before 3.12, so no list names one),
so these tests count the ``"call"`` events ``sys.setprofile`` reports
(a C function, such as a ``functools.partial`` charge or a socket's
``recv_into``, reports ``"c_call"`` instead) and compare the names, in
order, with a list.  A
change that adds a frame to the spine fails here and must say why.  One
cached served read is pinned whole, from ``FileService.pread`` down to
the page store, so a coherency fan-out with nobody to reach that opens
a region again fails here too; and so is its wire, at both ends of a
real socket, and one uncached read from the POSIX call down to the
image file, each with a ceiling on its bytecodes under CPython 3.11."""

import collections
import gc
import io
import sys
import threading

import pytest

from repro.ipc import wire
from repro.ipc.compound import compound_region
from repro.ipc.invocation import operation
from repro.fs import create_sfs
from repro.ipc.object import SpringObject
from repro.serve import FileService, build_service
from repro.sim.costs import FIXED_CHARGES
from repro.unix.posixlike import O_CREAT, O_RDWR, Posix
from repro.world import World
from tests.test_socket_transport import ServedWorld

WRAPPER = "operation.<locals>.wrapper"


class Echo(SpringObject):
    @operation
    def ping(self, n=0):
        return n


#: Frames the interpreter decides on, not the code: a list, dict or set
#: comprehension has one of its own only before CPython 3.12 (PEP 709
#: inlines it), so a pin that listed one would hold on some of the
#: versions CI runs and not on others.  Generator expressions are left
#: out with them, so no pin depends on how a comprehension is compiled.
COMPREHENSIONS = ("<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>")


def entered(call, *args):
    """Qualified names of the Python frames ``call(*args)`` enters, in
    the order it enters them (``call`` itself first), but for the
    :data:`COMPREHENSIONS`, and its result."""
    names = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_name not in COMPREHENSIONS:
            names.append(frame.f_code.co_qualname)

    # A collection inside the call would add its callbacks' frames (the
    # suite registers one), so none may start while the hook listens.
    gc.collect()
    gc.disable()
    sys.setprofile(hook)
    try:
        result = call(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return names, result


def bytecodes(call, *args):
    """How many bytecodes ``call(*args)`` runs, every frame of it, and
    its result."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    gc.collect()
    gc.disable()
    sys.settrace(trace)
    try:
        result = call(*args)
    finally:
        sys.settrace(None)
        gc.enable()
    return count, result


@pytest.fixture
def spine():
    world = World()
    near, far = world.create_node("near"), world.create_node("far")
    server = near.create_domain("server")
    domains = {
        "local": server,
        "cross_domain": near.create_domain("peer"),
        "network": far.create_domain("remote"),
    }
    return world, Echo(server), domains


#: The frames one call of ``Echo.ping(3)`` enters, by invocation path: a
#: cross-domain call enters the wrapper, the charge's ``charge`` and the
#: body, nothing else.
PATHS = {
    "direct": [WRAPPER, "Echo.ping"],
    "local": [WRAPPER, "SimClock.charge", "Echo.ping"],
    "cross_domain": [WRAPPER, "SimClock.charge", "Echo.ping"],
    "network": [
        WRAPPER, "bytes_in", "Network.transfer", "Network._account",
        "Charger.network", "SimClock.charge", "Echo.ping", "bytes_in",
    ],
    "network_batched": [
        WRAPPER, "bytes_in", "_absorbing_region", "CompoundRegion.absorbs",
        "CompoundRegion.absorb", "Network.ensure_reachable",
        "Network._check_reachable", "Echo.ping", "bytes_in",
    ],
}


class TestInvocationFrames:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_each_path_enters_its_listed_frames(self, spine, path):
        world, echo, domains = spine
        if path == "direct":
            assert entered(echo.ping, 3) == (PATHS[path], 3)
        elif path == "network_batched":
            with domains["network"].activate(), compound_region(world):
                assert entered(echo.ping, 3) == (PATHS[path], 3)
        else:
            with domains[path].activate():
                assert entered(echo.ping, 3) == (PATHS[path], 3)
        # The path taken is the one the counters name.
        assert world.counters.get(f"invoke.{path}") == 1
        assert world.counters.get("op.ping") == 1

    def test_the_wrapper_keeps_what_tools_find_it_by(self):
        assert Echo.ping._is_operation
        assert Echo.ping.__wrapped__.__qualname__ == "Echo.ping"


class TestChargeFrames:
    @pytest.mark.parametrize("charge", sorted(FIXED_CHARGES))
    def test_a_fixed_charge_enters_only_advance(self, charge):
        # Named when the frame was ``SimClock.advance``; it is the one
        # frame a fixed charge enters, now ``SimClock.charge``.
        world = World()
        assert entered(getattr(world.charge, charge)) == (
            ["SimClock.charge"], None
        )
        # The model's constant, under the charge's category.
        assert world.clock.categories() == {
            FIXED_CHARGES[charge]: getattr(world.cost_model, f"{charge}_us")
        }


class TestReceiveFrames:
    def test_a_whole_frame_is_one_call(self):
        frame = bytes(wire.pack_frame(wire.REQUEST, 7, "fs", "stat", ["a"]))
        frames = wire.FrameBuffer()
        # BytesIO.readinto, like a socket's recv_into, is a C function.
        names, body = entered(frames.receive, io.BytesIO(frame).readinto)
        assert names == ["FrameBuffer.receive"]
        assert bytes(body) == frame[4:] and frames.pending() == 0


#: The frames one cached ``FileService.pread`` enters on the served SFS:
#: the POSIX call, one cross-domain invocation, the coherency layer's
#: read from its cache.  Nobody else caches the file, so each coherency
#: fan-out is one O(1) test that finds nobody to reach — the attribute
#: fan-out asks the channel registry, the recall the holder table — and
#: neither opens a fan-out region.
SERVED_PREAD = [
    "FileService.pread", "Posix.pread", "Posix._entry", "OpenFile.readable",
    "_ClientCall.__enter__",
    WRAPPER, "SimClock.charge", "LayerFile.read",
    "CoherencyLayer.file_read", "SimClock.charge",
    "CoherencyLayer._current_attrs", "CoherencyLayer._collect_latest_attrs",
    "ChannelRegistry.__contains__",
    "BaseLayer.recall", "BlockHolderTable.any_holder",
    "PageStore.read", "PageStore.read_bytes",
    "CoherencyLayer._now", "SimClock.now_us", "CachedAttributes.touch_atime",
    "Charger.memcpy", "SimClock.charge",
    "_ClientCall.__exit__",
]


class TestServedReadFrames:
    def test_a_cached_pread_enters_only_its_listed_frames(self):
        world, node, service = build_service("sfs")
        fd = service.open("hot.dat", O_CREAT | O_RDWR)
        service.pwrite(fd, b"h" * 4096, 0)
        service.pread(fd, 4096, 0)  # warm: page and attributes cached
        assert entered(service.pread, fd, 4096, 0) == (
            SERVED_PREAD, b"h" * 4096
        )


class TestServedStatFrames:
    def test_a_valid_name_is_split_without_a_check_per_component(self):
        """A served ``stat`` of a two-component name splits it once: the
        volume's resolve enters ``split_name`` and goes on to its first
        lookup, and no ``validate_component`` is entered anywhere."""
        world, node, service = build_service("sfs")
        service.mkdir("d0")
        service.close(service.open("d0/f000", O_CREAT | O_RDWR))
        service.stat("d0/f000")  # warm
        names, _attrs = entered(service.stat, "d0/f000")
        at = names.index("VolumeNaming.resolve")
        assert names[at : at + 4] == [
            "VolumeNaming.resolve", "split_name", "SimClock.charge",
            "Volume.lookup",
        ]
        assert names.count("split_name") == 1
        assert "validate_component" not in names


#: The frames one uncached ``FileService.pread`` enters on an SFS over an
#: image file with the coherency cache off: the coherency layer's read
#: through, one page-in down the channel to the disk layer, one block
#: read from the image.  Everything between the channel and the image —
#: the volume's one-block read, the device's range test, the charges,
#: ``os.pread`` — is entered once, and no bookkeeping frame beside it.
SERVED_COLD_PREAD = [
    "FileService.pread", "Posix.pread", "Posix._entry", "OpenFile.readable",
    "_ClientCall.__enter__",
    WRAPPER, "SimClock.charge", "LayerFile.read",
    "CoherencyLayer.file_read", "SimClock.charge",
    "CoherencyLayer._current_attrs", "CoherencyLayer._collect_latest_attrs",
    "ChannelRegistry.__contains__",
    WRAPPER, "SimClock.charge", "DiskFile.get_attributes", "SimClock.charge",
    "Volume.iget", "FileAttributes.from_inode",
    "__create_fn__.<locals>.__init__",
    "BaseLayer.recall", "BlockHolderTable.any_holder",
    "CoherencyLayer._read_through", "BaseLayer.ensure_down",
    WRAPPER, "SimClock.charge", "LayerPagerObject.page_in",
    "LayerRuntime.dispatch", "DiskOps.page_in",
    "Volume.read_data", "Volume.iget", "Volume.bmap",
    WRAPPER, "SimClock.charge", "BlockDevice.read_block",
    "BlockDevice._transfer", "Charger.disk_io", "SimClock.charge",
    "ImageBlockStore.read",
    "Volume._now", "SimClock.now_us", "Volume.mark_dirty",
    "Charger.memcpy", "SimClock.charge",
    "_ClientCall.__exit__",
]

#: Bytecodes CPython 3.11 runs for that read, every frame of it (1459
#: before the storage bottom, the channel dispatch and the variable
#: charges lost their bookkeeping; 1294 while the wrapper, the channel
#: dispatch and the device transfer each tested for an event tracer).
#: A ceiling, like the wire's below.
SERVED_COLD_PREAD_OPCODES = 1272


class TestServedColdReadFrames:
    def test_an_uncached_pread_enters_only_its_listed_frames(self, tmp_path):
        world = World()
        node = world.create_node("server")
        device = world.create_image(node.nucleus, str(tmp_path / "cold.img"), 4096)
        sfs = create_sfs(node, device, cache=False)
        service = FileService(Posix(sfs.top, world.create_user_domain(node)))
        fd = service.open("cold.dat", O_CREAT | O_RDWR)
        service.pwrite(fd, b"c" * 4096, 0)
        service.pread(fd, 4096, 0)  # warm: the channel to the disk layer
        try:
            reads = device.reads
            assert entered(service.pread, fd, 4096, 0) == (
                SERVED_COLD_PREAD, b"c" * 4096
            )
            assert device.reads == reads + 1
            if sys.version_info[:2] == (3, 11):
                opcodes, data = bytecodes(service.pread, fd, 4096, 0)
                assert data == b"c" * 4096
                assert opcodes <= SERVED_COLD_PREAD_OPCODES
        finally:
            device.close()


#: What one dirty page costs a served ``fsync`` below the cache: its
#: snapshot, one run of the pager ``sync`` dispatched to the disk layer,
#: the volume's one-block write back — one i-node lookup, one ``bmap``,
#: no run list — and one block written to the image.  A one-page run
#: enters no helper to join or push it.
SYNC_PAGE = [
    "LayerRuntime.dispatch", "DiskOps.page_out",
    "Volume.write_back", "Volume.iget", "Volume._write", "Volume.bmap",
    WRAPPER, "SimClock.charge", "BlockDevice.write_block",
    "BlockDevice._transfer", "Charger.disk_io", "SimClock.charge",
    "ImageBlockStore.write",
    "Volume._now", "SimClock.now_us", "Volume.mark_dirty",
]
SNAPSHOT = ["PageStore.get", "CachedPage.snapshot"]

#: The frames one served ``fsync`` of two dirty, non-adjacent pages
#: enters on an SFS over an image file with the coherency cache on: the
#: attributes pushed down first, then the store's dirty index, both
#: pages' snapshots, one pager ``sync`` carrying both runs
#: (:data:`SYNC_PAGE` once per page), the one flush that ends it, and
#: the pages marked clean.
SERVED_SYNC = [
    "FileService.fsync", "Posix.fsync", "Posix._entry",
    "_ClientCall.__enter__",
    WRAPPER, "SimClock.charge", "LayerFile.sync",
    "CoherencyLayer.file_sync", "BaseLayer.ensure_down",
    "FileAttributes.copy", "__create_fn__.<locals>.__init__",
    WRAPPER, "SimClock.charge", "LayerPagerObject.attr_write_out",
    "LayerRuntime.dispatch", "VolumeOps.attr_write_out",
    "Volume.iget", "FileAttributes.apply_to_inode", "Volume.mark_dirty",
    "PageStore.dirty_indices", "PageStore._tracked_pages",
    "SourceCache.write_back", "LayerCache.pager", "index_runs",
    *SNAPSHOT, *SNAPSHOT,
    WRAPPER, "SimClock.charge", "LayerPagerObject.sync",
    "LayerPagerObject._push", *SYNC_PAGE, *SYNC_PAGE,
    "DiskOps.synced", "BlockDevice.flush", "ImageBlockStore.flush",
    "PageStore.set_dirty", "PageStore.set_dirty",
    "_ClientCall.__exit__",
]

#: Bytecodes CPython 3.11 runs for that ``fsync``, every frame of it
#: (2289 while each page was its own pager ``sync`` and its own flush;
#: 2599 while each page's write back looked its i-node up twice, built
#: a one-element run list, computed the i-node's cylinder group for a
#: block already mapped, and the cache entered a ``write_run`` frame and
#: a list comprehension per one-page run).  A ceiling.
SERVED_SYNC_OPCODES = 2177


class TestServedSyncFrames:
    def test_an_fsync_enters_only_its_listed_frames(self, tmp_path):
        world = World()
        node = world.create_node("server")
        device = world.create_image(node.nucleus, str(tmp_path / "sync.img"), 4096)
        sfs = create_sfs(node, device, cache=True)
        service = FileService(Posix(sfs.top, world.create_user_domain(node)))
        fd = service.open("sync.dat", O_CREAT | O_RDWR)

        def dirty(byte):
            for page in (0, 2):
                service.pwrite(fd, byte * 4096, page * 4096)

        try:
            dirty(b"w")
            service.fsync(fd)  # warm: both blocks allocated, channel bound
            dirty(b"v")
            writes = device.writes
            assert entered(service.fsync, fd) == (SERVED_SYNC, None)
            assert device.writes == writes + 2
            if sys.version_info[:2] == (3, 11):
                dirty(b"u")
                opcodes, _ = bytecodes(service.fsync, fd)
                assert opcodes <= SERVED_SYNC_OPCODES
            assert service.pread(fd, 3 * 4096, 0) == (
                b"u" * 4096 + bytes(4096) + b"u" * 4096
            )
        finally:
            device.close()


#: The ``repro.ipc`` frames one cached ``pread`` through a socket enters,
#: at each end.  The client: the stub, the transport's invoke and
#: exchange, and the codec once each way.  The server: one turn of its
#: connection loop, from the ``FrameBuffer.receive`` that takes the
#: request to the one that waits for the next: the codec once each way
#: around one ``ExportRegistry.call``, with the invocation of
#: ``SERVED_PREAD`` under it.  No frame shape of a workload's cached
#: read takes a ``_decode_*`` or ``_encode_*`` function, and the loop
#: answers the request without ``_reply_for``.
SERVED_WIRE = {
    "client": [
        "StubOperation.__call__", "SocketTransport.invoke",
        "SocketTransport._exchange", "pack_frame", "FrameBuffer.receive",
        "unpack_body",
    ],
    "server": [
        "FrameBuffer.receive", "unpack_body", "ExportRegistry.call",
        WRAPPER, "pack_frame",
    ],
}

#: Bytecodes CPython 3.11 runs in ``repro/ipc/`` for that read, both
#: ends: ``ipc.wire`` 415 and ``ipc.transport`` 262 (782 before the
#: codec's shape arms and the loop's own answer; 280 while the loop
#: tallied the bytes it received and sent), ``ipc.invocation`` 94 (118
#: while the POSIX call entered ``push_domain`` and ``pop_domain``, 97
#: while the wrapper tested for an event tracer).  792 in all before
#: those last two went.  A ceiling, so that the saving cannot drift
#: back unnoticed.
SERVED_WIRE_OPCODES = 771


class Recorder:
    """``threading.settrace`` on both ends of a served connection: the
    names of the ``repro.ipc`` frames entered and the bytecodes run in
    them, per end.  The client end is the calling thread while
    ``client_on`` is set.  The server end is one turn of its connection
    loop: from the ``FrameBuffer.receive`` it calls once ``armed`` is set
    to the next one, which sets ``server_done``."""

    def __init__(self):
        self.frames = {"client": [], "server": []}
        self.opcodes = collections.Counter()
        self.client = threading.get_ident()
        self.client_on = self.armed = self.server_on = False
        self.server_done = threading.Event()

    def _end(self, frame):
        """The end whose events ``frame``'s are, or None when not counted."""
        if frame.f_globals.get("__name__", "").startswith("repro.ipc."):
            if threading.get_ident() == self.client:
                return "client" if self.client_on else None
            return "server" if self.server_on else None
        return None

    def trace(self, frame, event, arg):
        """A new frame: a receive on the server turns its count on or off."""
        if (self.armed and not self.server_done.is_set()
                and threading.get_ident() != self.client
                and frame.f_code.co_qualname == "FrameBuffer.receive"):
            self.server_on = not self.server_on
            if not self.server_on:
                self.server_done.set()
        end = self._end(frame)
        if end is not None:
            self.frames[end].append(frame.f_code.co_qualname)
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return self._count

    def _count(self, frame, event, arg):
        if event == "opcode":
            end = self._end(frame)
            if end is not None:
                self.opcodes[end] += 1
        return self._count


class TestServedWireFrames:
    def test_a_cached_pread_enters_only_its_listed_frames(self):
        recorder = Recorder()
        # Set before the connection's server thread starts, so it runs
        # under the trace from its first frame.
        threading.settrace(recorder.trace)
        served = ServedWorld()
        client = served.client()
        try:
            fs = client.bind("fs", idempotent=("pread",))
            fd = fs.open("hot.dat", O_CREAT | O_RDWR)
            fs.pwrite(fd, b"h" * 4096, 0)
            fs.pread(fd, 4096, 0)  # warm: page, attributes, name caches
            gc.collect()
            gc.disable()
            sys.settrace(recorder.trace)
            recorder.armed = True
            assert fs.pread(fd, 4096, 0) == b"h" * 4096
            recorder.client_on = True
            assert fs.pread(fd, 4096, 0) == b"h" * 4096
            recorder.client_on = False
            assert recorder.server_done.wait(timeout=5)
        finally:
            sys.settrace(None)
            threading.settrace(None)
            gc.enable()
            client.close()
            served.stop()
        assert recorder.frames == SERVED_WIRE
        if sys.version_info[:2] == (3, 11):
            assert sum(recorder.opcodes.values()) <= SERVED_WIRE_OPCODES
