"""Unit tests for the coherency layer: caching, the MRSW protocol across
VMM clients, attribute coherency, and cache hooks from below."""

import pytest

from repro.errors import FsError, OutOfRangeError
from repro.types import PAGE_SIZE, AccessRights

RO = AccessRights.READ_ONLY
RW = AccessRights.READ_WRITE


@pytest.fixture
def fs(sfs, user):
    with user.activate():
        f = sfs.top.create_file("data.bin")
        f.write(0, b"0" * (4 * PAGE_SIZE))
        f.sync()
    return sfs


class TestDataCaching:
    def test_repeat_reads_hit_cache(self, fs, user, world, device):
        with user.activate():
            f = fs.top.resolve("data.bin")
            f.read(0, PAGE_SIZE)
            reads = device.reads
            for _ in range(5):
                f.read(0, PAGE_SIZE)
            assert device.reads == reads

    def test_writes_are_write_back(self, fs, user, device):
        with user.activate():
            f = fs.top.resolve("data.bin")
            writes = device.writes
            f.write(0, b"W" * PAGE_SIZE)
            assert device.writes == writes
            f.sync()
            assert device.writes > writes

    def test_sync_persists_through_stack(self, fs, user, node, device):
        with user.activate():
            f = fs.top.resolve("data.bin")
            f.write(0, b"PERSIST!")
            f.sync()
            fs.top.sync_fs()
        # Remount the device and check the bytes really landed.
        from repro.storage.volume import Volume

        volume = Volume.mount(device)
        ino = volume.lookup(volume.sb.root_ino, "data.bin")
        assert volume.read_data(ino, 0, 8) == b"PERSIST!"

    def test_read_clamped_to_size(self, fs, user):
        with user.activate():
            f = fs.top.resolve("data.bin")
            data = f.read(4 * PAGE_SIZE - 10, 1000)
            assert len(data) == 10

    def test_read_past_eof_empty(self, fs, user):
        with user.activate():
            f = fs.top.resolve("data.bin")
            assert f.read(10 * PAGE_SIZE, 10) == b""

    def test_write_extends_file(self, fs, user):
        with user.activate():
            f = fs.top.resolve("data.bin")
            f.write(5 * PAGE_SIZE, b"tail")
            assert f.get_length() == 5 * PAGE_SIZE + 4

    def test_size_growth_visible_before_sync(self, fs, user):
        """Attribute caching: the coherency layer's length is the
        authority even while the disk layer is stale."""
        with user.activate():
            f = fs.top.resolve("data.bin")
            f.write(6 * PAGE_SIZE, b"x")
            assert fs.top.resolve("data.bin").get_attributes().size == (
                6 * PAGE_SIZE + 1
            )
            assert fs.disk_layer.volume.iget(
                fs.disk_layer.volume.lookup(
                    fs.disk_layer.volume.sb.root_ino, "data.bin"
                )
            ).size < 6 * PAGE_SIZE

    def test_set_length_truncates_cache_and_below(self, fs, user):
        with user.activate():
            f = fs.top.resolve("data.bin")
            f.read(0, 4 * PAGE_SIZE)
            f.set_length(PAGE_SIZE)
            assert f.get_length() == PAGE_SIZE
            assert f.read(0, 10 * PAGE_SIZE) == b"0" * PAGE_SIZE


class TestMrswAcrossMappings:
    def test_mapping_write_visible_to_file_interface(self, fs, user, node):
        with user.activate():
            f = fs.top.resolve("data.bin")
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.write(0, b"MAPPED")
            assert fs.top.resolve("data.bin").read(0, 6) == b"MAPPED"

    def test_file_write_invalidates_mapping_copy(self, fs, user, node, world):
        with user.activate():
            f = fs.top.resolve("data.bin")
            mapping = node.vmm.create_address_space("t").map(f, RW)
            assert mapping.read(0, 4) == b"0000"
            f.write(0, b"NEWDATA!")
            # The write flushed the VMM's copy; the next mapped read
            # re-faults and sees fresh data.
            assert world.counters.get("vmm.flush_back") >= 1
            assert mapping.read(0, 8) == b"NEWDATA!"

    def test_two_mappings_same_file_share_cache(self, fs, user, node, world):
        with user.activate():
            h1 = fs.top.resolve("data.bin")
            h2 = fs.top.resolve("data.bin")
            aspace = node.vmm.create_address_space("t")
            m1, m2 = aspace.map(h1, RW), aspace.map(h2, RW)
            assert m1.cache is m2.cache  # equivalent memory objects
            m1.write(0, b"ONE")
            assert m2.read(0, 3) == b"ONE"
        assert world.counters.get("coherency.channel_created") == 1

    def test_reader_gets_writers_data_via_write_back(self, fs, user, node, world):
        with user.activate():
            f = fs.top.resolve("data.bin")
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.write(PAGE_SIZE, b"DIRTYPAGE")
            before = world.counters.get("vmm.write_back")
            data = fs.top.resolve("data.bin").read(PAGE_SIZE, 9)
            assert data == b"DIRTYPAGE"
            assert world.counters.get("vmm.write_back") == before + 1


class TestUncachedMode:
    @pytest.fixture
    def uncached(self, sfs_factory):
        node, stack = sfs_factory(placement="two_domains", cache=False)
        world = node.world
        user = world.create_user_domain(node)
        with user.activate():
            f = stack.top.create_file("u.bin")
            f.write(0, b"u" * PAGE_SIZE)
        return node, stack, user

    def test_reads_go_to_disk_every_time(self, uncached):
        node, stack, user = uncached
        device = stack.disk_layer.device
        with user.activate():
            f = stack.top.resolve("u.bin")
            r1 = device.reads
            f.read(0, PAGE_SIZE)
            f.read(0, PAGE_SIZE)
            assert device.reads >= r1 + 2

    def test_writes_go_through_immediately(self, uncached):
        node, stack, user = uncached
        device = stack.disk_layer.device
        with user.activate():
            f = stack.top.resolve("u.bin")
            w1 = device.writes
            f.write(0, b"now" + b"u" * (PAGE_SIZE - 3))
            assert device.writes > w1

    def test_data_still_correct(self, uncached):
        node, stack, user = uncached
        with user.activate():
            f = stack.top.resolve("u.bin")
            f.write(10, b"MARK")
            assert f.read(8, 8) == b"uuMARKuu"

    def test_a_short_page_in_is_zero_padded_on_either_arm(
        self, uncached, monkeypatch
    ):
        # A pager may return less than the attributes promise: a read
        # from a page boundary, which answers with the pager's bytes,
        # pads them with zeros as the run path of an unaligned read does.
        from repro.fs.disk_layer import DiskOps

        node, stack, user = uncached
        page_in = DiskOps.page_in
        monkeypatch.setattr(DiskOps, "page_in", lambda *args: page_in(*args)[:-96])
        expected = b"u" * (PAGE_SIZE - 96) + bytes(96)
        with user.activate():
            f = stack.top.resolve("u.bin")
            assert f.read(0, PAGE_SIZE) == expected
            assert f.read(1, PAGE_SIZE - 1) == expected[1:]

    def test_mapping_still_coherent_with_file_interface(self, uncached):
        node, stack, user = uncached
        with user.activate():
            f = stack.top.resolve("u.bin")
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.write(0, b"VIA-MAP!")
            assert stack.top.resolve("u.bin").read(0, 8) == b"VIA-MAP!"

    def test_attributes_from_above_go_straight_down(self, uncached):
        """Uncached, the layer keeps no attribute copy: what a holder
        writes out, and what a caching layer stacked on it holds dirty,
        reaches the disk layer's i-node."""
        from repro.fs.coherency import CoherencyLayer

        node, stack, user = uncached
        disk_file = stack.disk_layer.resolve
        with user.activate():
            f = stack.top.resolve("u.bin")
            mapping = node.vmm.create_address_space("t").map(f, RW)
            attrs = f.get_attributes()
            attrs.mtime_us = 123
            mapping.cache.channel.pager_object.attr_write_out(attrs)
            assert disk_file("u.bin").get_attributes().mtime_us == 123
            top = CoherencyLayer(node.create_domain("top"), cache=True)
            top.stack_on(stack.top)
            top.resolve("u.bin").write(0, b"grown" * PAGE_SIZE)
            # The top layer holds the new size dirty; asking the uncached
            # layer for attributes pulls it down first.
            assert f.get_attributes().size == 5 * PAGE_SIZE
            assert disk_file("u.bin").get_attributes().size == 5 * PAGE_SIZE


class TestAttributeCoherency:
    def test_attrs_cached_after_first_fetch(self, fs, user, world):
        with user.activate():
            f = fs.top.resolve("data.bin")
            f.get_attributes()
            before = world.counters.get("disk.attr_page_in")
            f.get_attributes()
            f.get_attributes()
            assert world.counters.get("disk.attr_page_in") == before

    def test_write_updates_cached_mtime(self, fs, user, world):
        with user.activate():
            f = fs.top.resolve("data.bin")
            m0 = f.get_attributes().mtime_us
            world.clock.advance(10_000)
            f.write(0, b"touch")
            assert f.get_attributes().mtime_us > m0

    def test_read_updates_cached_atime(self, fs, user, world):
        with user.activate():
            f = fs.top.resolve("data.bin")
            a0 = f.get_attributes().atime_us
            world.clock.advance(10_000)
            f.read(0, 10)
            assert f.get_attributes().atime_us > a0

    def test_sync_pushes_attrs_below(self, fs, user, world):
        with user.activate():
            f = fs.top.resolve("data.bin")
            world.clock.advance(5000)
            f.write(0, b"attrs")
            f.sync()
        volume = fs.disk_layer.volume
        ino = volume.lookup(volume.sb.root_ino, "data.bin")
        assert volume.iget(ino).mtime_us >= 5000


class TestCacheHooksFromBelow:
    """A second cache manager binds the SAME underlying disk file; the
    disk layer is non-coherent so nothing recalls the coherency layer's
    cache — but the coherency layer's fs_cache operations must behave
    correctly when driven directly (as a stacked-on-coherency scenario
    would)."""

    def test_flush_back_returns_dirty(self, fs, user):
        coherency = fs.coherency_layer
        with user.activate():
            f = fs.top.resolve("data.bin")
            f.write(0, b"DIRTY")
        state = next(iter(coherency._states.values()))
        modified = coherency.ops.flush_back(state, 0, PAGE_SIZE)
        assert modified[0][:5] == b"DIRTY"
        assert 0 not in state.store

    def test_deny_writes_downgrades_store(self, fs, user):
        coherency = fs.coherency_layer
        with user.activate():
            f = fs.top.resolve("data.bin")
            f.write(0, b"DOWNGRADE")
        state = next(iter(coherency._states.values()))
        modified = coherency.ops.deny_writes(state, 0, PAGE_SIZE)
        assert modified[0][:9] == b"DOWNGRADE"
        assert state.store.get(0).rights is RO

    def test_invalidate_attributes_drops_cache(self, fs, user):
        coherency = fs.coherency_layer
        with user.activate():
            fs.top.resolve("data.bin").get_attributes()
        state = next(iter(coherency._states.values()))
        assert state.attrs is not None
        coherency.ops.invalidate_attributes(state)
        assert state.attrs is None

    def test_a_pager_object_without_a_live_channel_is_refused(self, fs, user):
        coherency = fs.coherency_layer
        with user.activate():
            fs.top.resolve("data.bin").read(0, 1)
        state = next(iter(coherency._states.values()))
        with pytest.raises(FsError, match="live channel"):
            coherency.ops.page_in(state.source_key, object(), 0, PAGE_SIZE, RO)

    def test_attributes_from_the_file_below_a_plain_pager(self, fs, user):
        """A layer below that answers the bind with a plain storage pager
        (no fs_pager to narrow to) serves attributes through its file
        interface."""
        coherency = fs.coherency_layer
        with user.activate():
            size = fs.top.resolve("data.bin").get_attributes().size
            state = next(iter(coherency._states.values()))
            state.down_pager, state.attrs = None, None
            assert coherency._current_attrs(state).size == size

    def test_unaligned_populate_refused_and_page_kept(self, sfs, user):
        """populate pushes whole pages at a page-aligned offset, as the
        VMM takes it: one that starts mid-page is refused, and the page
        the layer caches keeps every byte."""
        with user.activate():
            f = sfs.top.create_file("a.bin")
            f.write(0, b"a" * PAGE_SIZE)
            f.sync()
            state = next(iter(sfs.coherency_layer._states.values()))
            with pytest.raises(OutOfRangeError):
                state.down_channel.cache_object.populate(100, 10, RO, b"x" * 10)
            assert f.read(0, PAGE_SIZE) == b"a" * PAGE_SIZE


class TestCoherentStacksFromNonCoherentLayers:
    def test_coherency_on_coherency_on_disk(self, world, node, device, user):
        """Sec. 6.3: a coherency layer stacked on any stack yields
        coherent exported files.  Stack a second coherency layer and
        check views through BOTH layers stay consistent."""
        from repro.fs.coherency import CoherencyLayer
        from repro.fs.sfs import create_sfs

        stack = create_sfs(node, device, name="base")
        top_domain = node.create_domain("coh2")
        top = CoherencyLayer(top_domain, cache=True)
        top.stack_on(stack.top)
        with user.activate():
            f_top = top.create_file("twice.bin")
            f_top.write(0, b"via top layer")
            # Read through the middle layer: must see the top's write
            # (recalled through the top layer's downstream channel).
            f_mid = stack.top.resolve("twice.bin")
            assert f_mid.read(0, 13) == b"via top layer"
            # And a write through the middle is seen at the top.
            f_mid.write(0, b"VIA")
            assert top.resolve("twice.bin").read(0, 3) == b"VIA"
