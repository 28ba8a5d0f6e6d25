"""Tests for the sec. 8 read-ahead/clustering extension: ranged
page-ins, clustered device transfers, and the VMM/coherency policies."""

import pytest

from repro.errors import DeviceError
from repro.fs.sfs import create_sfs
from repro.storage.block_device import BlockDevice
from repro.storage.inode import FileType
from repro.storage.volume import Volume
from repro.types import PAGE_SIZE, AccessRights
from repro.world import World

from tests.test_property_volume import runs_touched


@pytest.fixture
def seq_env(world, node, device):
    """A 32-page file on a cached SFS, synced to disk, caches dropped."""
    stack = create_sfs(node, device)
    user = world.create_user_domain(node)
    payload = bytes((i // 7) % 256 for i in range(32 * PAGE_SIZE))
    with user.activate():
        f = stack.top.create_file("seq.dat")
        f.write(0, payload)
        f.sync()
    state = next(iter(stack.coherency_layer._states.values()))
    state.store.clear()
    return stack, user, payload, state


class TestDeviceClustering:
    def test_read_blocks_one_transfer(self, world, node):
        device = BlockDevice(node.nucleus, "c0", 256)
        for i in range(8):
            device.write_block(10 + i, bytes([i]) * 16)
        reads_before = device.reads
        clock_before = world.clock.charged("disk")
        data = device.read_block(10, 8)
        assert device.reads == reads_before + 1
        assert data[0] == 0 and data[PAGE_SIZE] == 1
        one_transfer = world.clock.charged("disk") - clock_before
        # Far cheaper than 8 individual reads: one seek+rotation total.
        assert one_transfer < 8 * world.cost_model.disk_io_us(PAGE_SIZE) / 2

    def test_read_blocks_bounds(self, node):
        device = BlockDevice(node.nucleus, "c1", 16)
        with pytest.raises(DeviceError):
            device.read_block(10, 10)
        with pytest.raises(DeviceError):
            device.read_block(-1, 2)
        with pytest.raises(DeviceError):
            device.read_block(0, 0)
        with pytest.raises(DeviceError):
            device.write_block(15, bytes(2 * PAGE_SIZE))
        assert device.reads == device.writes == 0

    def test_run_writes_are_whole_blocks_or_one_short_block(self, node):
        device = BlockDevice(node.nucleus, "c3", 16)
        with pytest.raises(DeviceError):
            device.write_block(2, bytes(PAGE_SIZE + 1))
        device.write_block(2, b"short")  # a single short block is padded
        assert device.read_block(2) == b"short" + bytes(PAGE_SIZE - 5)
        device.write_block(4, b"a" * PAGE_SIZE + b"b" * PAGE_SIZE)
        assert device.read_block(4, 2) == b"a" * PAGE_SIZE + b"b" * PAGE_SIZE
        assert device.read_block(5) == b"b" * PAGE_SIZE
        assert device.writes == 2

    def test_bad_block_anywhere_in_a_run_fails_the_transfer(self, node):
        device = BlockDevice(node.nucleus, "c4", 16)
        device.inject_bad_block(6)
        with pytest.raises(DeviceError):
            device.read_block(4, 4)
        with pytest.raises(DeviceError):
            device.write_block(5, bytes(2 * PAGE_SIZE))
        assert device.reads == device.writes == 0
        assert device.peek(5) == bytes(PAGE_SIZE)

    def test_power_cut_counts_transfers_not_blocks(self, node):
        device = BlockDevice(node.nucleus, "c5", 16)
        device.inject_power_failure_after(1)
        device.write_block(0, bytes([1]) * (3 * PAGE_SIZE))
        with pytest.raises(DeviceError):
            device.write_block(3, bytes([2]) * (2 * PAGE_SIZE))
        assert device.peek(2) == bytes([1]) * PAGE_SIZE
        assert device.peek(3) == device.peek(4) == bytes(PAGE_SIZE)


class TestVolumeClusteredRead:
    def test_matches_plain_read(self, volume):
        root = volume.sb.root_ino
        f = volume.create(root, "c.dat", FileType.REGULAR)
        payload = bytes(i % 251 for i in range(10 * PAGE_SIZE))
        volume.write_data(f.ino, 0, payload)
        assert volume.read_data(f.ino, 0, len(payload)) == payload
        assert (
            volume.read_data(f.ino, 2 * PAGE_SIZE, 3 * PAGE_SIZE)
            == payload[2 * PAGE_SIZE : 5 * PAGE_SIZE]
        )
        # The same bytes as block-at-a-time reads of the same range.
        assert payload[2 * PAGE_SIZE : 5 * PAGE_SIZE] == b"".join(
            volume.read_data(f.ino, i * PAGE_SIZE, PAGE_SIZE) for i in (2, 3, 4)
        )

    def test_holes_read_zero(self, volume):
        root = volume.sb.root_ino
        f = volume.create(root, "h.dat", FileType.REGULAR)
        volume.write_data(f.ino, 5 * PAGE_SIZE, b"tail")
        reads_before = volume.device.reads
        data = volume.read_data(f.ino, 0, 5 * PAGE_SIZE + 4)
        assert volume.device.reads == reads_before + 1  # holes cost no I/O
        assert data[: 5 * PAGE_SIZE] == bytes(5 * PAGE_SIZE)
        assert data[5 * PAGE_SIZE :] == b"tail"

    def test_fewer_transfers_for_contiguous_file(self, world, node):
        device = BlockDevice(node.nucleus, "c2", 512)
        volume = Volume.mkfs(device, inode_count=32)
        f = volume.create(volume.sb.root_ino, "big", FileType.REGULAR)
        volume.write_data(f.ino, 0, b"z" * (16 * PAGE_SIZE))
        runs = runs_touched(volume, f.ino, 0, 16 * PAGE_SIZE)
        reads_before = device.reads
        volume.read_data(f.ino, 0, 16 * PAGE_SIZE)
        clustered_reads = device.reads - reads_before
        reads_before = device.reads
        for i in range(16):
            volume.read_data(f.ino, i * PAGE_SIZE, PAGE_SIZE)
        assert clustered_reads == runs < device.reads - reads_before == 16


class TestCoherencyReadahead:
    def test_sequential_scan_cheaper_with_readahead(self, sfs_factory):
        costs = {}
        for window in (0, 8):
            node, stack = sfs_factory()
            world = node.world
            stack.coherency_layer.readahead_pages = window
            user = world.create_user_domain(node)
            with user.activate():
                f = stack.top.create_file("scan.dat")
                f.write(0, b"s" * (32 * PAGE_SIZE))
                f.sync()
            state = next(iter(stack.coherency_layer._states.values()))
            state.store.clear()
            state.streams.reset()
            with user.activate():
                handle = stack.top.resolve("scan.dat")
                before = world.clock.now_us
                for page in range(32):
                    handle.read(page * PAGE_SIZE, PAGE_SIZE)
                costs[window] = world.clock.now_us - before
        # One seek per window instead of one per page: several-x cheaper.
        assert costs[8] < costs[0] / 2

    def test_readahead_data_correct(self, seq_env):
        stack, user, payload, state = seq_env
        stack.coherency_layer.readahead_pages = 8
        state.streams.reset()
        with user.activate():
            handle = stack.top.resolve("seq.dat")
            got = b"".join(
                handle.read(page * PAGE_SIZE, PAGE_SIZE) for page in range(32)
            )
        assert got == payload

    def test_random_access_does_not_trigger_readahead(self, seq_env, world):
        stack, user, payload, state = seq_env
        stack.coherency_layer.readahead_pages = 8
        state.streams.reset()
        with user.activate():
            handle = stack.top.resolve("seq.dat")
            for page in (17, 3, 29, 11, 23):
                handle.read(page * PAGE_SIZE, PAGE_SIZE)
        assert world.counters.get("coherency.readahead") == 0

    def test_disabled_by_default(self, seq_env, world):
        stack, user, payload, state = seq_env
        with user.activate():
            handle = stack.top.resolve("seq.dat")
            for page in range(8):
                handle.read(page * PAGE_SIZE, PAGE_SIZE)
        assert world.counters.get("coherency.readahead") == 0


class TestVmmReadahead:
    def test_sequential_mapping_scan_prefetches(self, seq_env, world, node):
        stack, user, payload, state = seq_env
        node.vmm.readahead_pages = 4
        with user.activate():
            f = stack.top.resolve("seq.dat")
            mapping = node.vmm.create_address_space("t").map(
                f, AccessRights.READ_ONLY
            )
            got = b"".join(
                mapping.read(page * PAGE_SIZE, PAGE_SIZE) for page in range(16)
            )
        assert got == payload[: 16 * PAGE_SIZE]
        assert world.counters.get("vmm.readahead") >= 1
        # Fewer faults than pages: prefetched pages hit the cache.
        assert world.counters.get("vmm.fault") < 16

    def test_vmm_readahead_respects_coherency(self, seq_env, world, node):
        """Speculatively installed pages are still tracked as held, so a
        later writer flushes them correctly."""
        stack, user, payload, state = seq_env
        node.vmm.readahead_pages = 4
        with user.activate():
            f = stack.top.resolve("seq.dat")
            mapping = node.vmm.create_address_space("t").map(
                f, AccessRights.READ_ONLY
            )
            mapping.read(0, PAGE_SIZE)
            mapping.read(PAGE_SIZE, 3 * PAGE_SIZE)  # triggers read-ahead
            # A writer through the file interface must invalidate the
            # prefetched copies too.
            f.write(2 * PAGE_SIZE, b"NEW DATA")
            assert mapping.read(2 * PAGE_SIZE, 8) == b"NEW DATA"
