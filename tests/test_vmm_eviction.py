"""Tests for VMM memory pressure: capacity bounds, clean-first
reclamation, dirty write-back, and end-to-end correctness under
thrashing."""

import pytest

from repro.fs.sfs import create_sfs
from repro.storage.block_device import RamDevice
from repro.types import PAGE_SIZE, AccessRights
from repro.world import World

RO = AccessRights.READ_ONLY
RW = AccessRights.READ_WRITE


@pytest.fixture
def env(world, node, user):
    device = RamDevice(node.nucleus, "ram", 8192)
    stack = create_sfs(node, device)
    with user.activate():
        f = stack.top.create_file("big.dat")
        f.write(0, bytes(range(256)) * (64 * PAGE_SIZE // 256))
        f.sync()
    return stack, user


class TestCapacityBound:
    def test_resident_pages_never_exceed_capacity(self, node, env, user):
        stack, user = env
        node.vmm.capacity_pages = 8
        with user.activate():
            f = stack.top.resolve("big.dat")
            mapping = node.vmm.create_address_space("t").map(f, RO)
            for page in range(32):
                mapping.read(page * PAGE_SIZE, 16)
                assert node.vmm.resident_pages() <= 8
        assert node.world.counters.get("vmm.evicted") > 0

    def test_unlimited_by_default(self, node, env, user):
        stack, user = env
        with user.activate():
            f = stack.top.resolve("big.dat")
            mapping = node.vmm.create_address_space("t").map(f, RO)
            for page in range(32):
                mapping.read(page * PAGE_SIZE, 16)
        assert node.world.counters.get("vmm.evicted") == 0
        assert node.vmm.resident_pages() == 32

    def test_clean_pages_evicted_before_dirty(self, node, env, user):
        stack, user = env
        node.vmm.capacity_pages = 4
        with user.activate():
            f = stack.top.resolve("big.dat")
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.write(0, b"DIRTY")  # page 0 dirty
            for page in range(1, 4):
                mapping.read(page * PAGE_SIZE, 16)  # fill with clean
            # Next fault must evict a clean page, keeping page 0 dirty
            # in memory (no write-back needed yet).
            page_outs_before = node.world.counters.get("coherency.page_out")
            mapping.read(5 * PAGE_SIZE, 16)
            assert node.world.counters.get("coherency.page_out") == page_outs_before
            assert mapping.cache.store.get(0).dirty

    def test_dirty_pages_written_back_when_needed(self, node, env, user):
        stack, user = env
        node.vmm.capacity_pages = 2
        with user.activate():
            f = stack.top.resolve("big.dat")
            mapping = node.vmm.create_address_space("t").map(f, RW)
            # Dirty more pages than fit: reclamation must page out.
            for page in range(6):
                mapping.write(page * PAGE_SIZE, bytes([page + 1]) * 32)
            # Every byte still reads back correctly (refaulted from the
            # coherency layer, which received the page-outs).
            for page in range(6):
                assert mapping.read(page * PAGE_SIZE, 32) == bytes(
                    [page + 1]
                ) * 32

    def test_correctness_under_thrash_matches_oracle(self, node, env, user):
        stack, user = env
        node.vmm.capacity_pages = 3
        oracle = bytearray(bytes(range(256)) * (64 * PAGE_SIZE // 256))
        with user.activate():
            f = stack.top.resolve("big.dat")
            mapping = node.vmm.create_address_space("t").map(f, RW)
            import random

            rng = random.Random(7)
            for step in range(60):
                page = rng.randrange(24)
                if rng.random() < 0.5:
                    data = bytes([step % 251]) * 64
                    mapping.write(page * PAGE_SIZE, data)
                    oracle[page * PAGE_SIZE : page * PAGE_SIZE + 64] = data
                else:
                    got = mapping.read(page * PAGE_SIZE, 64)
                    assert got == bytes(
                        oracle[page * PAGE_SIZE : page * PAGE_SIZE + 64]
                    ), f"step {step} page {page}"

    def test_sync_after_thrash_persists_everything(self, node, env, user):
        stack, user = env
        node.vmm.capacity_pages = 2
        with user.activate():
            f = stack.top.resolve("big.dat")
            mapping = node.vmm.create_address_space("t").map(f, RW)
            for page in range(8):
                mapping.write(page * PAGE_SIZE, bytes([page + 50]) * 16)
            mapping.cache.sync()
            stack.top.resolve("big.dat").sync()
            stack.top.sync_fs()
        volume = stack.disk_layer.volume
        ino = volume.lookup(volume.sb.root_ino, "big.dat")
        for page in range(8):
            assert (
                volume.read_data(ino, page * PAGE_SIZE, 16)
                == bytes([page + 50]) * 16
            )
