"""A fault is a run: a multi-page file read or write demands its missing
pages once per contiguous run (Appendix B's ``page_in`` has a *size*),
while a mapping — touched by loads and stores, which do not know their
range — still faults one page at a time."""

import pytest

from repro.fs.coherency import CoherencyLayer
from repro.fs.dfs import export_dfs
from repro.fs.sfs import create_sfs
from repro.ipc.domain import Credentials
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights

from tests.test_property_volume import runs_touched

RO = AccessRights.READ_ONLY
RW = AccessRights.READ_WRITE
PAGES = 64
PAYLOAD = bytes((i // 5) % 251 for i in range(PAGES * PAGE_SIZE))


def calls_below(world, fs="disk"):
    counters = world.counters
    return counters.get(f"{fs}.page_in") + counters.get(f"{fs}.page_in_range")


def layer_state(stack):
    return next(iter(stack.coherency_layer._states.values()))


@pytest.fixture
def big_file(world, node, device, user):
    """A cached two-domain SFS holding one synced 64-page file."""
    stack = create_sfs(node, device)
    with user.activate():
        f = stack.top.create_file("big.dat")
        f.write(0, PAYLOAD)
        f.sync()
    return stack, f


class TestFileOperationsDemandByRun:
    def test_write_into_truncated_file_is_one_call_below(self, big_file, world, user):
        stack, f = big_file
        with user.activate():
            f.set_length(0)
            before = calls_below(world)
            f.write(0, PAYLOAD)
            assert calls_below(world) - before == 1
            assert f.read(0, len(PAYLOAD)) == PAYLOAD

    def test_cold_read_is_one_call_and_one_transfer_per_physical_run(
        self, big_file, world, user, device
    ):
        stack, f = big_file
        state = layer_state(stack)
        state.store.clear()
        state.streams.reset()
        ino = f.state.under_file.ino
        runs = runs_touched(stack.volume, ino, 0, len(PAYLOAD))
        before, reads = calls_below(world), device.reads
        with user.activate():
            assert f.read(0, len(PAYLOAD)) == PAYLOAD
        assert calls_below(world) - before == 1
        assert device.reads - reads == runs

    def test_write_over_resident_read_only_pages_is_one_upgrade(
        self, big_file, world, user
    ):
        stack, f = big_file
        state = layer_state(stack)
        state.store.clear()
        with user.activate():
            f.read(8 * PAGE_SIZE, 8 * PAGE_SIZE)
            assert all(state.store.get(i).rights is RO for i in range(8, 16))
            before = calls_below(world)
            f.write(8 * PAGE_SIZE, b"w" * (8 * PAGE_SIZE))
        assert calls_below(world) - before == 1
        assert all(
            state.store.get(i).rights is RW and state.store.get(i).dirty
            for i in range(8, 16)
        )

    def test_sequential_two_page_reads_keep_the_readahead_window(
        self, big_file, world, user
    ):
        """What a run that bypassed the stream detector would break:
        page-at-a-time faulting makes 8 calls below for this scan, every
        one after the first a ranged one carrying the window."""
        stack, f = big_file
        stack.coherency_layer.readahead_pages = 4
        state = layer_state(stack)
        state.store.clear()
        state.streams.reset()
        before = calls_below(world)
        with user.activate():
            got = b"".join(
                f.read(page * PAGE_SIZE, 2 * PAGE_SIZE) for page in range(0, 32, 2)
            )
        assert got == PAYLOAD[: 32 * PAGE_SIZE]
        calls = calls_below(world) - before
        assert calls <= 8
        assert world.counters.get("coherency.readahead") == calls - 1


def test_a_mapping_still_faults_one_page_at_a_time(big_file, world, node, user):
    """Loads and stores do not know their range: the MMU's granularity
    is the page, and the stream detector plus window is the VMM's only
    hint (sec. 8).  A multi-page access through a mapping is one fault,
    and one call below, per page."""
    stack, f = big_file
    counters = world.counters
    with user.activate():
        space = node.vmm.create_address_space("pin")
        for access, touch in (
            (RO, lambda m: m.read(0, 4 * PAGE_SIZE)),
            (RW, lambda m: m.write(8 * PAGE_SIZE, b"s" * (4 * PAGE_SIZE))),
        ):
            mapping = space.map(f, access)
            faults, below = counters.get("vmm.fault"), calls_below(world, "coherency")
            touch(mapping)
            assert counters.get("vmm.fault") - faults == 4
            assert calls_below(world, "coherency") - below == 4
    assert counters.get("coherency.page_in_range") == 0
    assert counters.get("vmm.readahead") == 0


def test_a_run_is_admitted_page_by_page_in_the_holder_table_below(world):
    """Two clients of one DFS export, each caching through its own
    coherency layer: A's single 8-page write makes A the read-write
    holder of all 8 blocks at the server, and B's read recalls them."""
    server = world.create_node("server")
    sfs = create_sfs(server, BlockDevice(server.nucleus, "sd0", 4096))
    dfs = export_dfs(server, sfs.top)
    server_user = world.create_user_domain(server)
    with server_user.activate():
        sfs.top.create_file("shared.dat").write(0, bytes(8 * PAGE_SIZE))
    clients = {}
    for name in "AB":
        node = world.create_node(f"client-{name}")
        domain = node.create_domain(f"coh-{name}", Credentials(f"coh-{name}", True))
        layer = CoherencyLayer(domain)
        layer.stack_on(dfs)
        clients[name] = (layer, world.create_user_domain(node))
    layer_a, user_a = clients["A"]
    layer_b, user_b = clients["B"]
    data = bytes(range(256)) * (8 * PAGE_SIZE // 256)
    with user_a.activate():
        layer_a.resolve("shared.dat").write(0, data)
    holders = next(iter(dfs._states.values())).holders
    channel_a = next(iter(layer_a._states.values())).down_channel
    assert [
        [(c.cache_object.oid, r) for c, r in holders.holders_of(i)]
        for i in range(8)
    ] == [[(channel_a.cache_object.oid, RW)]] * 8

    def recalled():
        counters = world.counters
        return counters.get("coherency.flush_back.bytes") + counters.get(
            "coherency.deny_writes.bytes"
        )

    before = recalled()
    with user_b.activate():
        assert layer_b.resolve("shared.dat").read(0, len(data)) == data
    assert recalled() - before == 8 * PAGE_SIZE
