"""Unit tests for the naming architecture: names, contexts, ACLs,
per-domain namespaces."""

import pytest

from repro.errors import (
    InvalidNameError,
    NameAlreadyBoundError,
    NameNotFoundError,
    NotAContextError,
    PermissionDeniedError,
)
from repro.naming import name as names
from repro.naming.acl import Acl, open_acl, system_acl
from repro.naming.context import MemoryContext
from repro.naming.namespace import namespace_for


class TestNameSyntax:
    def test_split_simple(self):
        assert names.split_name("a") == ["a"]

    def test_split_compound(self):
        assert names.split_name("a/b/c") == ["a", "b", "c"]

    def test_split_absolute(self):
        assert names.split_name("/fs/sfs0") == ["fs", "sfs0"]

    @pytest.mark.parametrize("bad", ["", "/", "a//b", "a/", "/a/", "a\0b"])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(InvalidNameError):
            names.split_name(bad)

    def test_head_tail(self):
        assert names.head_tail("a/b/c") == ("a", "b/c")
        assert names.head_tail("only") == ("only", "")

    def test_join(self):
        assert names.join("/fs", "x", "y") == "/fs/x/y"
        assert names.join("a", "b") == "a/b"

    def test_is_absolute(self):
        assert names.is_absolute("/x")
        assert not names.is_absolute("x")


@pytest.fixture
def ctx(world, node):
    return MemoryContext(node.nucleus)


class TestMemoryContext:
    def test_bind_resolve(self, ctx):
        ctx.bind("x", 42)
        assert ctx.resolve("x") == 42

    def test_resolve_missing(self, ctx):
        with pytest.raises(NameNotFoundError):
            ctx.resolve("nope")

    def test_double_bind_rejected(self, ctx):
        ctx.bind("x", 1)
        with pytest.raises(NameAlreadyBoundError):
            ctx.bind("x", 2)

    def test_unbind_returns_object(self, ctx):
        ctx.bind("x", "payload")
        assert ctx.unbind("x") == "payload"
        with pytest.raises(NameNotFoundError):
            ctx.resolve("x")

    def test_unbind_missing(self, ctx):
        with pytest.raises(NameNotFoundError):
            ctx.unbind("ghost")

    def test_rebind_swaps(self, ctx):
        ctx.bind("x", "old")
        assert ctx.rebind("x", "new") == "old"
        assert ctx.resolve("x") == "new"

    def test_rebind_requires_existing(self, ctx):
        with pytest.raises(NameNotFoundError):
            ctx.rebind("x", 1)

    def test_compound_resolution(self, ctx, node):
        sub = ctx.create_context("sub")
        subsub = sub.create_context("deeper")
        subsub.bind("leaf", "found")
        assert ctx.resolve("sub/deeper/leaf") == "found"

    def test_compound_through_non_context(self, ctx):
        ctx.bind("file", 123)
        with pytest.raises(NotAContextError):
            ctx.resolve("file/deeper")

    def test_list_bindings_sorted(self, ctx):
        ctx.bind("b", 2)
        ctx.bind("a", 1)
        assert ctx.list_bindings() == [("a", 1), ("b", 2)]

    def test_context_bindable_elsewhere(self, ctx, node):
        """A context is an object like any other (paper sec. 3.2)."""
        other = MemoryContext(node.nucleus)
        other.bind("mounted", ctx)
        ctx.bind("x", "deep")
        assert other.resolve("mounted/x") == "deep"

    def test_same_object_under_two_names(self, ctx):
        obj = object()
        ctx.bind("one", obj)
        ctx.bind("two", obj)
        assert ctx.resolve("one") is ctx.resolve("two")


class TestAcls:
    def test_open_acl_allows_all(self):
        from repro.ipc.domain import Credentials

        acl = open_acl()
        creds = Credentials("anyone")
        assert acl.can_resolve(creds) and acl.can_bind(creds)

    def test_system_acl_blocks_world_bind(self):
        from repro.ipc.domain import Credentials

        acl = system_acl("owner")
        stranger = Credentials("stranger")
        assert acl.can_resolve(stranger)
        assert not acl.can_bind(stranger)

    def test_system_acl_allows_owner_and_privileged(self):
        from repro.ipc.domain import Credentials

        acl = system_acl("owner")
        assert acl.can_bind(Credentials("owner"))
        assert acl.can_bind(Credentials("root", privileged=True))

    def test_acl_enforced_by_context(self, world, node, user):
        protected = MemoryContext(node.nucleus, system_acl("nucleus"))
        with user.activate():
            with pytest.raises(PermissionDeniedError):
                protected.bind("x", 1)
            # resolve is world-readable
            with pytest.raises(NameNotFoundError):
                protected.resolve("x")

    def test_root_context_is_protected(self, world, node, user):
        with user.activate():
            with pytest.raises(PermissionDeniedError):
                node.root_context.bind("evil", 1)

    def test_fs_context_is_open(self, world, node, user):
        with user.activate():
            node.fs_context.bind("mine", 42)
            assert node.fs_context.resolve("mine") == 42


class TestNamespace:
    def test_private_binding_shadows_nothing_shared(self, world, node):
        d1 = node.create_domain("d1")
        d2 = node.create_domain("d2")
        ns1, ns2 = namespace_for(d1), namespace_for(d2)
        ns1.bind("private", "d1-only")
        assert ns1.resolve("private") == "d1-only"
        with pytest.raises(NameNotFoundError):
            ns2.resolve("private")

    def test_shared_root_visible_to_all(self, world, node):
        d1 = node.create_domain("d1")
        d2 = node.create_domain("d2")
        node.fs_context.bind("shared", "everyone")
        assert namespace_for(d1).resolve("/fs/shared") == "everyone"
        assert namespace_for(d2).resolve("/fs/shared") == "everyone"

    def test_relative_falls_back_to_root(self, world, node):
        domain = node.create_domain("d")
        ns = namespace_for(domain)
        assert ns.resolve("fs") is node.fs_context

    def test_private_wins_over_root(self, world, node):
        domain = node.create_domain("d")
        ns = namespace_for(domain)
        ns.bind("fs", "my own fs")
        assert ns.resolve("fs") == "my own fs"
        assert ns.resolve("/fs") is node.fs_context

    def test_absolute_bind_goes_to_root(self, world, node):
        domain = node.create_domain("d", None)
        ns = namespace_for(domain)
        ns.bind("/fs/thing", 7)
        assert node.fs_context.resolve("thing") == 7

    def test_unbind_from_the_private_view_and_the_root(self, world, node):
        ns = namespace_for(node.create_domain("d", None))
        ns.bind("mine", 1)
        ns.bind("/fs/thing", 7)
        assert ns.unbind("mine") == 1
        assert ns.unbind("/fs/thing") == 7
        with pytest.raises(NameNotFoundError):
            ns.resolve("mine")
        with pytest.raises(NameNotFoundError):
            node.fs_context.resolve("thing")

    def test_list_bindings_of_the_private_view_or_a_context(self, world, node):
        ns = namespace_for(node.create_domain("d", None))
        ns.bind("mine", 1)
        ns.bind("/fs/shared", 2)
        assert ns.list_bindings() == [("mine", 1)]
        assert ("shared", 2) in ns.list_bindings("/fs")
        with pytest.raises(NameNotFoundError, match="not a context"):
            ns.list_bindings("mine")
        with pytest.raises(NameNotFoundError, match="not a context"):
            ns.bind("/fs/shared/below", 3)

    def test_namespace_cached_per_domain(self, world, node):
        domain = node.create_domain("d")
        assert namespace_for(domain) is namespace_for(domain)
