"""Regression tests: unlink must purge layer state so a reused i-node
does not resurrect the old file's cached attributes or data."""

import pytest

from repro.fs.compfs import CompFs
from repro.fs.cryptfs import CryptFs
from repro.fs.sfs import create_sfs
from repro.ipc.domain import Credentials
from repro.types import PAGE_SIZE


@pytest.fixture
def stack(world, node, device, user):
    return create_sfs(node, device)


class TestCoherencyLayerPurge:
    def test_new_file_on_reused_inode_is_empty(self, stack, user):
        with user.activate():
            old = stack.top.create_file("old.dat")
            old.write(0, b"OLD CONTENT " * 100)
            stack.top.unbind("old.dat")
            new = stack.top.create_file("new.dat")
            assert new.get_length() == 0
            assert new.read(0, 100) == b""
            assert new.get_attributes().size == 0

    def test_new_file_data_independent(self, stack, user):
        with user.activate():
            old = stack.top.create_file("old.dat")
            old.write(0, b"A" * PAGE_SIZE)
            old.read(0, PAGE_SIZE)  # populate the layer cache
            stack.top.unbind("old.dat")
            new = stack.top.create_file("new.dat")
            new.write(0, b"B" * 10)
            assert new.read(0, PAGE_SIZE) == b"B" * 10

    def test_stale_handle_fails_after_unlink(self, stack, user):
        from repro.errors import SpringError

        with user.activate():
            old = stack.top.create_file("old.dat")
            old.write(0, b"data")
            stack.top.unbind("old.dat")
            with pytest.raises(SpringError):
                old.check_access(
                    __import__("repro.types", fromlist=["AccessRights"])
                    .AccessRights.READ_ONLY
                )

    def test_unbind_via_subdirectory_purges(self, stack, user):
        with user.activate():
            d = stack.top.create_dir("sub")
            f = d.create_file("x.dat")
            f.write(0, b"in subdir")
            d.unbind("x.dat")
            g = d.create_file("y.dat")
            assert g.get_length() == 0


class TestTransformLayerPurge:
    def test_compfs_purges_plaintext_on_unlink(self, world, node, stack, user):
        compfs = CompFs(node.create_domain("cz", Credentials("c", True)))
        compfs.stack_on(stack.top)
        with user.activate():
            f = compfs.create_file("z.dat")
            f.write(0, b"compressed old " * 50)
            f.sync()
            compfs.unbind("z.dat")
            g = compfs.create_file("z2.dat")
            assert g.get_length() == 0
            g.write(0, b"fresh")
            assert g.read(0, 5) == b"fresh"

    def test_cryptfs_purges_plaintext_on_unlink(self, world, node, stack, user):
        cryptfs = CryptFs(node.create_domain("cy", Credentials("c", True)))
        cryptfs.stack_on(stack.top)
        with user.activate():
            f = cryptfs.create_file("e.dat")
            f.write(0, b"encrypted old")
            f.sync()
            cryptfs.unbind("e.dat")
            g = cryptfs.create_file("e2.dat")
            assert g.get_length() == 0
            g.write(0, b"fresh secret")
            assert g.read(0, 12) == b"fresh secret"


class TestMonolithicPurge:
    """The fused baseline keeps its file state in the runtime's two
    registries (by i-node and by source key); unlink must empty both."""

    @pytest.fixture
    def mono(self, world, node, device):
        return create_sfs(node, device, placement="not_stacked").top

    def test_unlink_drops_state_from_both_registries(self, mono, user):
        with user.activate():
            sub = mono.create_dir("sub")
            for i, directory in enumerate((mono, mono, mono, sub, sub)):
                f = directory.create_file(f"f{i}.dat")
                f.write(0, bytes([i]) * (2 * PAGE_SIZE))
            assert len(mono._states) == len(mono._states_by_source) == 5
            cached = [s.store for s in mono._states_by_source.values()]
            assert sum(len(list(store.pages())) for store in cached) == 10
            for i, directory in enumerate((mono, mono, mono, sub, sub)):
                directory.unbind(f"f{i}.dat")
        assert mono._states == {}
        assert mono._states_by_source == {}
        assert sum(len(list(store.pages())) for store in cached) == 0

    def test_mapping_of_reused_inode_does_not_see_the_old_file(
        self, mono, node, user
    ):
        from repro.types import AccessRights

        with user.activate():
            old = mono.create_file("old.dat")
            old.write(0, b"A" * PAGE_SIZE)
            aspace = node.vmm.create_address_space("t")
            assert bytes(aspace.map(old, AccessRights.READ_ONLY).read(0, 4)) == b"AAAA"
            mono.unbind("old.dat")
            new = mono.create_file("new.dat")
            assert new.source_key == old.source_key  # the i-node was reused
            new.write(0, b"B" * PAGE_SIZE)
            assert bytes(aspace.map(new, AccessRights.READ_ONLY).read(0, 4)) == b"BBBB"
