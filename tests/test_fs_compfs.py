"""Unit tests for COMPFS: compression format, both coherence cases,
mappings of file_COMP, and space accounting."""

import pytest

from repro.bench.workloads import compressible_bytes, incompressible_bytes
from repro.errors import FsError
from repro.fs.compfs import (
    CLUSTER_BYTES,
    MAGIC,
    SLOT_BYTES,
    SLOT_PAGES,
    STREAM_MAX,
    CompFs,
    pack_cluster,
    plain_length,
    stored_length,
    unpack_cluster,
    write_image,
)
from repro.fs.sfs import create_sfs
from repro.ipc.domain import Credentials
from repro.types import PAGE_SIZE, AccessRights

RO = AccessRights.READ_ONLY
RW = AccessRights.READ_WRITE


@pytest.fixture
def env(world, node, device):
    sfs = create_sfs(node, device)
    user = world.create_user_domain(node)

    def build(coherent=True):
        domain = node.create_domain(
            f"compfs-{'c' if coherent else 'n'}", Credentials("compfs", True)
        )
        layer = CompFs(domain, coherent=coherent)
        layer.stack_on(sfs.top)
        return layer

    return world, node, sfs, user, build


class TestFormat:
    """One cluster's slot: header (magic, stream length, plaintext
    length), then the zlib stream."""

    def test_roundtrip(self):
        blob = compressible_bytes(10_000, seed=1)
        assert unpack_cluster(pack_cluster(blob)) == blob

    def test_empty(self):
        assert unpack_cluster(pack_cluster(b"")) == b""
        assert unpack_cluster(b"") == b""
        assert unpack_cluster(bytes(STREAM_MAX)) == b""  # a slot never written

    def test_bad_magic_rejected(self):
        with pytest.raises(FsError):
            unpack_cluster(b"XXXX" + bytes(100))

    def test_truncated_header_rejected(self):
        with pytest.raises(FsError):
            unpack_cluster(b"CZ")

    def test_size_mismatch_detected(self):
        import struct

        slot = pack_cluster(b"hello")
        _, length, _ = struct.unpack_from("<4sII", slot)
        forged = struct.pack("<4sII", MAGIC, length, 999) + slot[12:]
        with pytest.raises(FsError):
            unpack_cluster(forged)

    def test_corrupt_stream_rejected(self):
        slot = bytearray(pack_cluster(compressible_bytes(10_000, seed=3)))
        slot[20:40] = bytes(20)
        with pytest.raises(FsError):
            unpack_cluster(bytes(slot))

    def test_the_length_below_says_the_plaintext_length(self):
        for length in (0, 1, PAGE_SIZE, CLUSTER_BYTES - 1, CLUSTER_BYTES,
                       CLUSTER_BYTES + 1, 5 * CLUSTER_BYTES + 123):
            stored = stored_length(length)
            assert plain_length(stored) == length
            # The last slot ends past any stream its cluster can have.
            assert stored == 0 or stored % SLOT_BYTES > STREAM_MAX or (
                stored % SLOT_BYTES == 0
            )

    def test_cut_stream_rejected(self):
        slot = pack_cluster(compressible_bytes(10_000, seed=3))
        with pytest.raises(FsError):
            unpack_cluster(slot[:-1])

    def test_actually_compresses(self):
        blob = compressible_bytes(CLUSTER_BYTES, seed=2)
        assert len(pack_cluster(blob)) < len(blob) // 2

    def test_a_cluster_that_does_not_compress_fits_its_slot(self):
        assert len(pack_cluster(incompressible_bytes(CLUSTER_BYTES, seed=4))) <= (
            STREAM_MAX
        )


class TestBasicOperation:
    def test_create_write_read(self, env):
        _, _, _, user, build = env
        compfs = build()
        with user.activate():
            f = compfs.create_file("a.z")
            payload = compressible_bytes(20_000, seed=3)
            f.write(0, payload)
            assert f.read(0, len(payload)) == payload
            assert f.get_length() == len(payload)

    def test_persisted_compressed(self, env):
        _, _, sfs, user, build = env
        compfs = build()
        payload = compressible_bytes(50_000, seed=4)
        with user.activate():
            f = compfs.create_file("a.z")
            f.write(0, payload)
            f.sync()
            raw = sfs.top.resolve("a.z")
            assert raw.read(0, 4) == MAGIC
            assert unpack_cluster(raw.read(0, STREAM_MAX)) == payload

    def test_space_report(self, env):
        _, _, _, user, build = env
        compfs = build()
        payload = compressible_bytes(30_000, seed=5)
        with user.activate():
            f = compfs.create_file("a.z")
            f.write(0, payload)
            f.sync()
            report = compfs.space_report(f)
        assert report["plaintext_bytes"] == 30_000
        assert report["stored_bytes"] < 30_000

    def test_incompressible_data_survives(self, env):
        _, _, _, user, build = env
        compfs = build()
        payload = incompressible_bytes(15_000, seed=6)
        with user.activate():
            f = compfs.create_file("rand.bin")
            f.write(0, payload)
            f.sync()
            assert compfs.resolve("rand.bin").read(0, 15_000) == payload

    def test_overwrite_and_extend(self, env):
        _, _, _, user, build = env
        compfs = build()
        with user.activate():
            f = compfs.create_file("grow.z")
            f.write(0, b"aaaa")
            f.write(2, b"BBBB")  # overlap + extend
            assert f.read(0, 6) == b"aaBBBB"
            assert f.get_length() == 6

    def test_truncate(self, env):
        _, _, _, user, build = env
        compfs = build()
        with user.activate():
            f = compfs.create_file("t.z")
            f.write(0, b"0123456789")
            f.set_length(4)
            assert f.get_length() == 4
            assert f.read(0, 100) == b"0123"

    def test_attributes_show_plaintext_size(self, env):
        _, _, _, user, build = env
        compfs = build()
        payload = compressible_bytes(8_000, seed=7)
        with user.activate():
            f = compfs.create_file("a.z")
            f.write(0, payload)
            assert f.get_attributes().size == 8_000

    def test_reopen_after_sync_reloads(self, env):
        _, _, _, user, build = env
        compfs = build()
        payload = compressible_bytes(12_000, seed=8)
        with user.activate():
            f = compfs.create_file("a.z")
            f.write(0, payload)
            f.sync()
            again = compfs.resolve("a.z")
            assert again.read(0, len(payload)) == payload

    def test_empty_file(self, env):
        _, _, _, user, build = env
        compfs = build()
        with user.activate():
            f = compfs.create_file("empty.z")
            assert f.get_length() == 0
            assert f.read(0, 10) == b""

    def test_directories_wrapped(self, env):
        _, _, _, user, build = env
        compfs = build()
        with user.activate():
            sub = compfs.create_dir("sub")
            f = sub.create_file("inner.z")
            f.write(0, b"nested")
            assert compfs.resolve("sub/inner.z").read(0, 6) == b"nested"


def test_a_cold_read_pages_in_only_the_stream(world, env):
    """A cluster whose stream fits its slot's first page is one page-in
    of one page below, not of the stream's whole room."""
    _, _, sfs, user, build = env
    with user.activate():
        write_image(sfs.top.create_file("c.z"), bytes(CLUSTER_BYTES))
        sfs.top.sync_fs()
    compfs = build()
    before = world.counters.get("coherency.page_in.bytes")
    with user.activate():
        assert compfs.resolve("c.z").read(0, PAGE_SIZE) == bytes(PAGE_SIZE)
    assert world.counters.get("coherency.page_in.bytes") - before == PAGE_SIZE


class TestCoherenceCases:
    def _direct_rewrite(self, sfs, name, new_plain, user):
        with user.activate():
            write_image(sfs.top.resolve(name), new_plain)

    def test_case1_stale_after_direct_write(self, env):
        _, _, sfs, user, build = env
        compfs = build(coherent=False)
        with user.activate():
            f = compfs.create_file("s.z")
            f.write(0, b"version one")
            f.sync()
            f.read(0, 4)  # prime the plaintext cache
        self._direct_rewrite(sfs, "s.z", b"version TWO", user)
        with user.activate():
            assert compfs.resolve("s.z").read(0, 11) == b"version one"  # stale!

    def test_case2_coherent_after_direct_write(self, env):
        _, _, sfs, user, build = env
        compfs = build(coherent=True)
        with user.activate():
            f = compfs.create_file("s.z")
            f.write(0, b"version one")
            f.read(0, 4)
        self._direct_rewrite(sfs, "s.z", b"version TWO", user)
        with user.activate():
            assert compfs.resolve("s.z").read(0, 11) == b"version TWO"

    def test_case2_compfs_write_visible_directly(self, env):
        _, _, sfs, user, build = env
        compfs = build(coherent=True)
        with user.activate():
            f = compfs.create_file("w.z")
            f.write(0, b"written through compfs")
            raw = sfs.top.resolve("w.z")
            assert unpack_cluster(raw.read(0, STREAM_MAX)) == b"written through compfs"

    def test_case1_write_back_needs_sync(self, env):
        _, _, sfs, user, build = env
        compfs = build(coherent=False)
        with user.activate():
            f = compfs.create_file("lazy.z")
            f.write(0, b"lazy data")
            raw = sfs.top.resolve("lazy.z")
            assert raw.get_length() == 0  # not yet: the length waits too
            assert f.get_length() == 9
            f.sync()
            assert raw.get_length() == stored_length(9)
            assert unpack_cluster(raw.read(0, STREAM_MAX)) == b"lazy data"

    def test_case1_truncate_needs_sync(self, env):
        _, _, sfs, user, build = env
        compfs = build(coherent=False)
        payload = compressible_bytes(2 * CLUSTER_BYTES, seed=2)
        with user.activate():
            f = compfs.create_file("cut.z")
            f.write(0, payload)
            f.sync()
            raw = sfs.top.resolve("cut.z")
            f.set_length(100)
            assert f.get_length() == 100
            assert f.get_attributes().size == 100
            assert f.read(0, 200) == payload[:100]
            assert raw.get_length() == stored_length(2 * CLUSTER_BYTES)
            f.sync()
            assert raw.get_length() == stored_length(100)
            assert compfs.resolve("cut.z").read(0, 200) == payload[:100]


class TestMappings:
    def test_map_file_comp_reads_plaintext(self, env):
        _, node, _, user, build = env
        compfs = build()
        payload = compressible_bytes(3 * PAGE_SIZE, seed=9)
        with user.activate():
            f = compfs.create_file("m.z")
            f.write(0, payload)
            mapping = node.vmm.create_address_space("t").map(f, RO)
            assert mapping.read(PAGE_SIZE, 64) == payload[PAGE_SIZE : PAGE_SIZE + 64]

    def test_mapped_write_coherent_with_read(self, env):
        _, node, _, user, build = env
        compfs = build()
        with user.activate():
            f = compfs.create_file("mw.z")
            f.write(0, b"x" * PAGE_SIZE)
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.write(0, b"MAPWRITE")
            mapping.cache.sync()
            assert compfs.resolve("mw.z").read(0, 8) == b"MAPWRITE"

    def test_a_truncate_below_a_mapped_write_keeps_it(self, env):
        """A page of cluster 1 written through a mapping survives a
        truncate that cuts cluster 2: the length below then ends in
        cluster 1's slot, past its stream, so the layer below changed
        none of cluster 1."""
        _, node, _, user, build = env
        compfs = build()
        payload = compressible_bytes(3 * CLUSTER_BYTES, seed=5)
        at = 20 * PAGE_SIZE
        with user.activate():
            f = compfs.create_file("cut.z")
            f.write(0, payload)
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.write(at, b"MAPPED")
            f.set_length(24 * PAGE_SIZE)
            mapping.cache.sync()
            assert f.read(at, 8) == b"MAPPED" + payload[at + 6 : at + 8]
            assert mapping.read(at, 6) == b"MAPPED"

    def test_binds_to_file_comp_handled_by_compfs(self, env, world):
        """COMPFS can never share the underlying cache — plaintext and
        compressed bytes differ (sec. 4.2.2)."""
        _, node, _, user, build = env
        compfs = build()
        with user.activate():
            f = compfs.create_file("b.z")
            f.write(0, b"y" * PAGE_SIZE)
            node.vmm.create_address_space("t").map(f, RO).read(0, 4)
        assert world.counters.get("compfs.channel_created") == 1


@pytest.mark.parametrize("coherent", [True, False])
def test_an_append_to_a_cold_file_keeps_its_last_cluster(env, coherent):
    """A second COMPFS instance over the same file holds none of it: an
    append into the last cluster brings that cluster up before encoding
    it whole."""
    _, node, sfs, user, _ = env

    def instance(name):
        layer = CompFs(node.create_domain(name, Credentials(name, True)), coherent)
        layer.stack_on(sfs.top)
        return layer

    data = compressible_bytes(10 * PAGE_SIZE, seed=12)
    with user.activate():
        f = instance("first").create_file("cold.z")
        f.write(0, data)
        f.sync()
        g = instance("second").resolve("cold.z")
        g.write(len(data), b"T" * (2 * PAGE_SIZE))
        g.sync()
        assert instance("third").resolve("cold.z").read(0, 12 * PAGE_SIZE) == (
            data + b"T" * (2 * PAGE_SIZE)
        )


class TestTornRewrite:
    """A power cut in the middle of saving a one-page rewrite leaves every
    cluster of the file reading its old or its new bytes."""

    PAGES = 64

    def _stack(self, path, fresh):
        from repro.world import World

        world = World()
        node = world.create_node("n")
        if fresh:
            device = world.create_image(node.nucleus, path, 4096)
        else:
            device = world.open_image(node.nucleus, path)
        sfs = create_sfs(node, device, format_device=fresh)
        layer = CompFs(node.create_domain("cz", Credentials("cz", True)))
        layer.stack_on(sfs.top)
        node.fs_context.bind("cz", layer)
        return world, sfs, layer, device, world.create_user_domain(node)

    def test_each_cluster_reads_old_or_new_at_every_cut(self, tmp_path):
        from repro.errors import DeviceError

        path = str(tmp_path / "torn.img")
        old = compressible_bytes(self.PAGES * PAGE_SIZE, seed=21)
        page = compressible_bytes(PAGE_SIZE, seed=22)
        new = old[: 3 * PAGE_SIZE] + page + old[4 * PAGE_SIZE :]
        world, _, layer, device, user = self._stack(path, fresh=True)
        with user.activate():
            layer.create_file("f").write(0, old)
        world.save()
        device.close()
        with open(path, "rb") as image:
            clean = image.read()

        cut = 0
        while True:
            with open(path, "wb") as image:
                image.write(clean)
            world, _, layer, device, user = self._stack(path, fresh=False)
            with user.activate():
                layer.resolve("f").write(3 * PAGE_SIZE, page)
            device.inject_power_failure_after(cut)
            try:
                world.save()
                finished = True
            except DeviceError:
                finished = False
            device.close()

            _, sfs, layer, device, user = self._stack(path, fresh=False)
            sfs.volume.fsck(repair=True)
            with user.activate():
                got = layer.resolve("f").read(0, len(old))
            device.close()
            for start in range(0, len(old), CLUSTER_BYTES):
                end = start + CLUSTER_BYTES
                assert got[start:end] in (old[start:end], new[start:end]), (
                    cut, start // CLUSTER_BYTES,
                )
            if finished:
                assert got == new
                break
            cut += 1


def _coherent_file(pages):
    """``(world, user, layer, sfs, file)``: a coherent COMPFS file of
    ``pages`` compressible pages over SFS."""
    from repro.storage.block_device import BlockDevice
    from repro.world import World

    world = World()
    node = world.create_node("n")
    sfs = create_sfs(node, BlockDevice(node.nucleus, "sd0", 8192))
    layer = CompFs(node.create_domain("cz", Credentials("cz", True)))
    layer.stack_on(sfs.top)
    user = world.create_user_domain(node)
    with user.activate():
        f = layer.create_file("f")
        f.write(0, compressible_bytes(pages * PAGE_SIZE, seed=pages))
    return world, user, layer, sfs, f


class TestWriteCost:
    """A 4 KiB write encodes the one cluster it lands in, whatever the
    size of the file."""

    SIZES = (16, 64, 256)

    def _cost(self, pages, offset):
        world, user, _, _, f = _coherent_file(pages)
        page = compressible_bytes(PAGE_SIZE, seed=7)
        with user.activate():
            start = world.clock.now_us
            f.write(offset, page)
            return world.clock.now_us - start

    def test_an_append_costs_the_same_at_every_size(self):
        costs = [self._cost(pages, pages * PAGE_SIZE) for pages in self.SIZES]
        assert max(costs) <= 2 * min(costs), costs

    def test_a_rewrite_of_the_last_page_costs_the_same_at_every_size(self):
        costs = [
            self._cost(pages, (pages - 1) * PAGE_SIZE) for pages in self.SIZES
        ]
        assert max(costs) <= 2 * min(costs), costs


def test_slot_tails_stay_unallocated():
    """Below, each cluster's slot holds its header and stream and nothing
    else: every block of the slot past them is a hole."""
    pages = 3 * CLUSTER_BYTES // PAGE_SIZE
    _, user, _, sfs, f = _coherent_file(pages)
    plaintext = compressible_bytes(pages * PAGE_SIZE, seed=pages)
    with user.activate():
        f.sync()
    volume = sfs.volume
    inode = volume.iget(volume.lookup(volume.sb.root_ino, "f"))
    for cluster in range(3):
        start = cluster * CLUSTER_BYTES
        used = -(-len(pack_cluster(plaintext[start : start + CLUSTER_BYTES])) // PAGE_SIZE)
        held = [
            volume.bmap(inode, cluster * SLOT_PAGES + block) != 0
            for block in range(SLOT_PAGES)
        ]
        assert held == [True] * used + [False] * (SLOT_PAGES - used)
