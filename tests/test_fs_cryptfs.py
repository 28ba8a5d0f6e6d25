"""Unit tests for CRYPTFS: keystream determinism, roundtrips, ciphertext
on disk, per-block invalidation, and degraded (channel-refused) mode."""

import pytest

from repro.bench.workloads import incompressible_bytes
from repro.errors import DeviceError
from repro.fs.cryptfs import CryptFs, keystream, xor_block
from repro.fs.dfs import export_dfs
from repro.fs.sfs import create_sfs
from repro.ipc.domain import Credentials
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights

RW = AccessRights.READ_WRITE


@pytest.fixture
def env(world, node, device):
    sfs = create_sfs(node, device)
    domain = node.create_domain("cryptfs", Credentials("cryptfs", True))
    layer = CryptFs(domain, key=b"unit-test-key")
    layer.stack_on(sfs.top)
    user = world.create_user_domain(node)
    return world, node, sfs, layer, user


class TestCipher:
    def test_keystream_deterministic(self):
        assert keystream(b"k", 0, 64) == keystream(b"k", 0, 64)

    def test_keystream_varies_by_block(self):
        assert keystream(b"k", 0, 64) != keystream(b"k", 1, 64)

    def test_keystream_varies_by_key(self):
        assert keystream(b"a", 0, 64) != keystream(b"b", 0, 64)

    def test_keystream_length(self):
        assert len(keystream(b"k", 0, 100)) == 100
        assert len(keystream(b"k", 0, PAGE_SIZE)) == PAGE_SIZE

    def test_xor_involution(self):
        data = incompressible_bytes(PAGE_SIZE, seed=1)
        assert xor_block(xor_block(data, b"k", 3), b"k", 3) == data

    def test_xor_changes_data(self):
        data = b"plaintext" * 100
        assert xor_block(data, b"k", 0) != data


class TestRoundtrip:
    def test_write_read(self, env):
        _, _, _, layer, user = env
        with user.activate():
            f = layer.create_file("e.bin")
            payload = incompressible_bytes(3 * PAGE_SIZE, seed=2)
            f.write(0, payload)
            assert f.read(0, len(payload)) == payload

    def test_ciphertext_on_underlying(self, env):
        _, _, sfs, layer, user = env
        with user.activate():
            f = layer.create_file("e.bin")
            secret = b"top secret contents!" * 50
            f.write(0, secret)
            f.sync()
            raw = sfs.top.resolve("e.bin").read(0, len(secret))
            assert raw != secret
            assert xor_block(raw[:PAGE_SIZE], b"unit-test-key", 0)[
                : len(secret) if len(secret) < PAGE_SIZE else PAGE_SIZE
            ].startswith(b"top secret")

    def test_length_preserved(self, env):
        _, _, sfs, layer, user = env
        with user.activate():
            f = layer.create_file("e.bin")
            f.write(0, b"x" * 12345)
            f.sync()
            assert sfs.top.resolve("e.bin").get_length() == 12345
            assert f.get_length() == 12345

    def test_partial_overwrite(self, env):
        _, _, _, layer, user = env
        with user.activate():
            f = layer.create_file("e.bin")
            f.write(0, b"a" * 100)
            f.write(50, b"B" * 10)
            assert f.read(45, 20) == b"aaaaa" + b"B" * 10 + b"aaaaa"

    def test_cross_page_write(self, env):
        _, _, _, layer, user = env
        payload = incompressible_bytes(PAGE_SIZE, seed=3)
        with user.activate():
            f = layer.create_file("e.bin")
            f.write(0, bytes(2 * PAGE_SIZE))
            f.write(PAGE_SIZE - 100, payload)
            f.sync()
            again = layer.resolve("e.bin")
            assert again.read(PAGE_SIZE - 100, PAGE_SIZE) == payload

    def test_reload_after_cache_drop(self, env):
        """Data must decrypt correctly from disk, not just from cache."""
        _, _, _, layer, user = env
        payload = incompressible_bytes(2 * PAGE_SIZE, seed=4)
        with user.activate():
            f = layer.create_file("e.bin")
            f.write(0, payload)
            f.sync()
        state = next(iter(layer._states.values()))
        state.store.clear()
        with user.activate():
            assert layer.resolve("e.bin").read(0, len(payload)) == payload

    def test_truncate(self, env):
        _, _, _, layer, user = env
        with user.activate():
            f = layer.create_file("e.bin")
            f.write(0, b"0123456789")
            f.set_length(4)
            assert f.read(0, 100) == b"0123"

    def test_wrong_key_reads_garbage(self, env):
        _, node, sfs, layer, user = env
        with user.activate():
            f = layer.create_file("e.bin")
            f.write(0, b"sensitive")
            f.sync()
        wrong = CryptFs(
            node.create_domain("cryptfs2", Credentials("c2", True)),
            key=b"WRONG-key",
        )
        wrong.stack_on(sfs.top)
        with user.activate():
            assert wrong.resolve("e.bin").read(0, 9) != b"sensitive"


class TestCoherenceWithDirectAccess:
    def test_direct_write_invalidates_plaintext(self, env):
        _, _, sfs, layer, user = env
        with user.activate():
            f = layer.create_file("c.bin")
            f.write(0, b"original")
            f.read(0, 8)  # cache plaintext
            # Direct client writes new ciphertext to the underlying file.
            new_plain = b"REPLACED"
            image = xor_block(new_plain, b"unit-test-key", 0)
            raw = sfs.top.resolve("c.bin")
            raw.write(0, image)
            assert layer.resolve("c.bin").read(0, 8) == b"REPLACED"

    def test_mapping_of_cryptfile_coherent(self, env):
        _, node, _, layer, user = env
        with user.activate():
            f = layer.create_file("m.bin")
            f.write(0, b"z" * PAGE_SIZE)
            mapping = node.vmm.create_address_space("t").map(f, RW)
            mapping.write(0, b"VIA MAP")
            assert layer.resolve("m.bin").read(0, 7) == b"VIA MAP"

    def test_a_recall_while_growing_refetches_the_last_page(self, world):
        """Over a remote DFS, growing the file inside its last page makes
        DFS recall that page from CRYPTFS (a set_length recalls the
        boundary page from every holder).  The page is fetched again,
        and its head survives and its tail reads as zeros."""
        server = world.create_node("server")
        client = world.create_node("client")
        sfs = create_sfs(server, BlockDevice(server.nucleus, "sd0", 4096))
        layer = CryptFs(client.create_domain("cryptfs"), key=b"unit-test-key")
        layer.stack_on(export_dfs(server, sfs.top))
        with world.create_user_domain(client).activate():
            f = layer.create_file("g.bin")
            f.write(0, b"head")
            f.set_length(100)
            assert world.counters.get("cryptfs.flush_back") == 1
            assert f.read(0, 100) == b"head" + bytes(96)

    def test_a_write_past_eof_into_a_read_only_last_page_leaves_zeros(self, env):
        """The last page came up read-only (a cold read), and the layer
        below holds nothing past EOF to decrypt: a write that leaves a gap
        after EOF reads zeros there, not keystream."""
        _, _, sfs, layer, user = env
        with user.activate():
            f = layer.create_file("gap.bin")
            f.write(0, b"a" * 100)
            f.sync()
            for cache in (layer, sfs.coherency_layer):
                for state in cache._states.values():
                    state.store.clear()
            assert f.read(0, 100) == b"a" * 100
            f.write(150, b"X")
            assert f.read(0, 200) == b"a" * 100 + bytes(50) + b"X"

    def test_a_page_in_after_a_change_below_asks_the_length_again(self, env):
        """A shrink below drops the length the file state keeps; the next
        page-in asks again and stops at the new EOF, so a mapping reads
        zeros past it, not the keystream of the zeros below."""
        _, node, sfs, layer, user = env
        with user.activate():
            f = layer.create_file("cut.bin")
            f.write(0, b"b" * 100)
            mapping = node.vmm.create_address_space("t").map(f, RW)
            sfs.top.resolve("cut.bin").set_length(50)
            (state,) = layer._states.values()
            assert state.length is None
            assert bytes(mapping.read(0, 100)) == b"b" * 50 + bytes(50)
            assert state.length == 50


class TestDegradedMode:
    def test_works_over_mirrorfs(self, world, node):
        """mirrorfs refuses writable binds; cryptfs must degrade to the
        file interface and still behave correctly."""
        from repro.fs.mirrorfs import MirrorFs
        from repro.storage.block_device import BlockDevice

        dev_a = BlockDevice(node.nucleus, "ma", 4096)
        dev_b = BlockDevice(node.nucleus, "mb", 4096)
        sfs_a = create_sfs(node, dev_a, name="ma")
        sfs_b = create_sfs(node, dev_b, name="mb")
        mirror = MirrorFs(node.create_domain("mir", Credentials("m", True)))
        mirror.stack_on(sfs_a.top)
        mirror.stack_on(sfs_b.top)
        crypt = CryptFs(
            node.create_domain("cry", Credentials("c", True)), key=b"k2"
        )
        crypt.stack_on(mirror)
        user = world.create_user_domain(node)
        with user.activate():
            f = crypt.create_file("d.bin")
            f.write(0, b"mirrored secret")
            f.sync()
            assert crypt.resolve("d.bin").read(0, 15) == b"mirrored secret"
            raw_a = sfs_a.top.resolve("d.bin").read(0, 15)
            raw_b = sfs_b.top.resolve("d.bin").read(0, 15)
            assert raw_a == raw_b != b"mirrored secret"
        assert world.counters.get("cryptfs.bind_refused") == 1

        # The file interface has no ranged read: a read-ahead window on
        # the layer must not turn a sequential scan into one.
        crypt.readahead_pages = 4
        payload = bytes(range(256)) * (6 * PAGE_SIZE // 256)
        with user.activate():
            g = crypt.create_file("scan.bin")
            g.write(0, payload)
            for state in crypt._states.values():
                state.store.clear()
            scanned = b"".join(
                g.read(page * PAGE_SIZE, PAGE_SIZE) for page in range(6)
            )
        assert scanned == payload
        assert world.counters.get("cryptfs.readahead") == 0


class TestAFailedExtensionKeepsTheLength:
    """Growing a file first faults its old last page (its tail must read
    as zeros).  When that fault fails below, the file keeps its length,
    above and below — a write past EOF and a growing ftruncate alike."""

    @pytest.fixture
    def faulty(self, world, node, device):
        sfs = create_sfs(node, device, cache=False)
        user = world.create_user_domain(node)
        writer = CryptFs(node.create_domain("c1", Credentials("c1", True)))
        writer.stack_on(sfs.top)
        with user.activate():
            writer.create_file("f.dat").write(0, b"a" * 6000)
        volume = sfs.disk_layer.volume
        inode = volume.iget(volume.lookup(volume.sb.root_ino, "f.dat"))
        device.inject_bad_block(volume.bmap(inode, 1))  # under the second page
        # A fresh layer: nothing of the file is cached above the disk.
        layer = CryptFs(node.create_domain("c2", Credentials("c2", True)))
        layer.stack_on(sfs.top)
        return sfs, layer, user

    @pytest.mark.parametrize("grow", ["write", "ftruncate"])
    def test_a_failed_fault_leaves_the_length(self, faulty, grow):
        sfs, layer, user = faulty
        with user.activate():
            f = layer.resolve("f.dat")
            with pytest.raises(DeviceError):
                if grow == "write":
                    f.write(10_000, b"b" * 100)
                else:
                    f.set_length(10_100)
            assert f.get_length() == 6000
            assert sfs.top.resolve("f.dat").get_length() == 6000
