"""Tests for the NULLFS pass-through layer."""

import pytest

from repro.fs.nullfs import NullFs
from repro.fs.sfs import create_sfs
from repro.ipc.domain import Credentials
from repro.types import PAGE_SIZE, AccessRights


@pytest.fixture
def base(world, node, device, user):
    stack = create_sfs(node, device)
    return world, node, stack, user


class TestNullFs:
    @pytest.fixture
    def nullfs(self, base, node):
        world, _, stack, user = base
        layer = NullFs(node.create_domain("null", Credentials("n", True)))
        layer.stack_on(stack.top)
        return layer

    def test_transparent_io(self, base, nullfs, user):
        world, node, stack, user = base
        with user.activate():
            f = nullfs.create_file("t.dat")
            f.write(0, b"pass through")
            assert f.read(0, 12) == b"pass through"
            # Visible identically below.
            assert stack.top.resolve("t.dat").read(0, 12) == b"pass through"

    def test_bind_forwarded_shares_cache(self, base, nullfs, user):
        world, node, stack, user = base
        with user.activate():
            f_null = nullfs.create_file("m.dat")
            f_null.write(0, b"m" * PAGE_SIZE)
            f_under = stack.top.resolve("m.dat")
            aspace = node.vmm.create_address_space("t")
            m_null = aspace.map(nullfs.resolve("m.dat"), AccessRights.READ_WRITE)
            m_under = aspace.map(f_under, AccessRights.READ_WRITE)
            assert m_null.cache is m_under.cache
            m_null.write(0, b"SHARED")
            assert m_under.read(0, 6) == b"SHARED"
        assert world.counters.get("nullfs.bind_forwarded") >= 1

    def test_directories_and_rename(self, base, nullfs, user):
        world, node, stack, user = base
        with user.activate():
            d = nullfs.create_dir("sub")
            d.create_file("a.txt").write(0, b"a")
            d.rename("a.txt", "b.txt")
            assert nullfs.resolve("sub/b.txt").read(0, 1) == b"a"

    def test_attrs_and_truncate_passthrough(self, base, nullfs, user):
        world, node, stack, user = base
        with user.activate():
            f = nullfs.create_file("t2.dat")
            f.write(0, b"0123456789")
            assert f.get_attributes().size == 10
            f.set_length(4)
            assert stack.top.resolve("t2.dat").get_length() == 4

    def test_coherent_with_direct_access(self, base, nullfs, user):
        world, node, stack, user = base
        with user.activate():
            f = nullfs.create_file("c.dat")
            f.write(0, b"original")
            stack.top.resolve("c.dat").write(0, b"DIRECT!!")
            assert nullfs.resolve("c.dat").read(0, 8) == b"DIRECT!!"

