"""Unit tests for compound remote invocation: region absorption,
per-destination batching, demultiplexed results, and resolve_path."""

import pytest

from repro.errors import InvocationError, NotAContextError, PermissionDeniedError
from repro.ipc.compound import (
    SKIPPED,
    CompoundInvocation,
    CompoundSubOpError,
    compound_region,
)
from repro.ipc.invocation import operation
from repro.ipc.object import SpringObject
from repro.ipc.transport import SocketTransport
from repro.naming.acl import Acl
from repro.naming.cache import NameCache
from repro.naming.context import MemoryContext
from repro.world import World


class Echo(SpringObject):
    @operation
    def ping(self) -> str:
        return "pong"

    @operation
    def bulk(self, data: bytes) -> bytes:
        return data

    @operation
    def fail(self) -> None:
        raise ValueError("boom")

    @operation
    def relay(self, other: "Echo") -> str:
        # Nested invocation made by *this* server's domain — must not be
        # absorbed by a region opened in the original caller's domain.
        return other.ping()


@pytest.fixture
def world():
    return World()


@pytest.fixture
def setup(world):
    node_a = world.create_node("a")
    node_b = world.create_node("b")
    node_c = world.create_node("c")
    client = node_a.create_domain("client")
    server_b = node_b.create_domain("server-b")
    server_c = node_c.create_domain("server-c")
    return world, client, Echo(server_b), Echo(server_c), node_a, node_b, node_c


class TestCompoundRegion:
    def test_n_calls_one_message(self, setup):
        world, client, echo_b, _, node_a, node_b, _ = setup
        with client.activate():
            with compound_region(world):
                for _ in range(5):
                    echo_b.ping()
        assert world.network.messages == 1
        assert world.network.message_count(node_a, node_b) == 1
        assert world.counters.get("invoke.network_batched") == 5
        assert world.counters.get("invoke.network") == 0
        assert world.counters.get("compound.batches") == 1
        assert world.counters.get("compound.batched_ops") == 5
        assert world.counters.get("compound.messages_saved") == 4

    def test_payload_bytes_are_summed(self, setup):
        world, client, echo_b, _, node_a, node_b, _ = setup
        with client.activate():
            with compound_region(world):
                echo_b.bulk(b"x" * 100)
                echo_b.bulk(b"y" * 200)
        # Requests travel a->b (300 bytes batched) and the replies ride
        # back b->a, both accounted per pair.
        assert world.network.bytes_count(node_a, node_b) == 300
        assert world.network.bytes_count(node_b, node_a) == 300
        assert world.network.messages == 1

    def test_one_message_per_destination(self, setup):
        world, client, echo_b, echo_c, node_a, node_b, node_c = setup
        with client.activate():
            with compound_region(world):
                echo_b.ping()
                echo_c.ping()
                echo_b.ping()
        assert world.network.messages == 2
        assert world.network.message_count(node_a, node_b) == 1
        assert world.network.message_count(node_a, node_c) == 1

    def test_local_and_cross_domain_calls_unaffected(self, setup):
        world, client, _, _, node_a, _, _ = setup
        local_echo = Echo(node_a.create_domain("peer"))
        with client.activate():
            with compound_region(world):
                local_echo.ping()
        assert world.network.messages == 0
        assert world.counters.get("invoke.cross_domain") == 1
        assert world.counters.get("compound.batches") == 0

    def test_nested_server_invocations_charge_normally(self, setup):
        world, client, echo_b, echo_c, _, node_b, node_c = setup
        with client.activate():
            with compound_region(world):
                echo_b.relay(echo_c)
        # relay itself is absorbed (1 message a->b at flush); the nested
        # ping is issued by server-b's domain and pays its own trip b->c.
        assert world.network.messages == 2
        assert world.network.message_count(node_b, node_c) == 1

    def test_region_restores_per_op_charging(self, setup):
        world, client, echo_b, _, _, _, _ = setup
        with client.activate():
            with compound_region(world):
                echo_b.ping()
            echo_b.ping()
            echo_b.ping()
        assert world.network.messages == 3  # 1 batched + 2 normal

    def test_empty_region_charges_nothing(self, setup):
        world, client, _, _, _, _, _ = setup
        with client.activate():
            with compound_region(world):
                pass
        assert world.network.messages == 0
        assert world.counters.get("compound.batches") == 0

    def test_no_active_domain_absorbs_nothing(self, setup):
        world, _, echo_b, _, _, _, _ = setup
        with compound_region(world):
            echo_b.ping()  # direct path: no caller domain, no charge
        assert world.network.messages == 0


class TestCompoundInvocation:
    def test_demultiplexed_results(self, setup):
        world, client, echo_b, echo_c, _, _, _ = setup
        batch = CompoundInvocation(world)
        assert batch.add(echo_b.ping) == 0
        assert batch.add(echo_c.bulk, b"data") == 1
        assert len(batch) == 2
        with client.activate():
            result = batch.commit()
        assert result.ok
        assert result[0] == "pong"
        assert result[1] == b"data"
        assert result.values() == ["pong", b"data"]
        assert world.network.messages == 2  # one per destination node
        assert world.counters.get("compound.commit") == 1

    def test_sub_op_failure_is_demuxed(self, setup):
        world, client, echo_b, _, _, _, _ = setup
        batch = CompoundInvocation(world)
        batch.add(echo_b.ping)
        batch.add(echo_b.fail)
        batch.add(echo_b.ping)
        with client.activate():
            result = batch.commit()
        assert not result.ok
        assert result.failed_index == 1
        assert result[0] == "pong"  # completed before the failure
        with pytest.raises(CompoundSubOpError) as exc_info:
            result[1]
        assert isinstance(exc_info.value.cause, ValueError)
        assert exc_info.value.op_name == "fail"
        # Fail-fast: op 2 never ran; asking for it surfaces the abort.
        assert result.outcomes[2] is SKIPPED
        assert repr(SKIPPED) == "<skipped>"
        with pytest.raises(CompoundSubOpError):
            result[2]

    def test_fail_fast_off_runs_remaining_ops(self, setup):
        world, client, echo_b, _, _, _, _ = setup
        batch = CompoundInvocation(world, fail_fast=False)
        batch.add(echo_b.fail)
        batch.add(echo_b.ping)
        with client.activate():
            result = batch.commit()
        assert result.failed_index == 0
        assert result[1] == "pong"

    def test_flush_charges_ops_that_ran_before_failure(self, setup):
        world, client, echo_b, _, node_a, node_b, _ = setup
        batch = CompoundInvocation(world)
        batch.add(echo_b.ping)
        batch.add(echo_b.fail)
        with client.activate():
            batch.commit()
        # Both absorbed ops went over the wire before the failure was
        # demuxed; the shared round trip is still charged.
        assert world.network.message_count(node_a, node_b) == 1

    def test_without_a_world_only_one_transports_stubs_batch(self):
        """A world-less batch ships as one compound frame or not at all:
        stubs of two transports, or no op, are refused before anything
        is sent."""
        first = SocketTransport("127.0.0.1", 9).bind("fs")
        second = SocketTransport("127.0.0.1", 9).bind("fs")
        mixed, empty = CompoundInvocation(), CompoundInvocation()
        mixed.add(first.stat, "a")
        mixed.add(second.stat, "b")
        for batch in (mixed, empty):
            with pytest.raises(InvocationError, match="without a world"):
                batch.commit()


class TestResolvePath:
    @pytest.fixture
    def tree(self, world):
        node_a = world.create_node("a")
        node_b = world.create_node("b")
        client = node_a.create_domain("client")
        root = MemoryContext(node_b.nucleus)
        mid = root.create_context("mid")
        mid.bind("leaf", "value")
        return world, client, root, mid, node_a, node_b

    def test_multi_component_walk_is_one_message(self, tree):
        world, client, root, mid, node_a, node_b = tree
        with client.activate():
            resolved = root.resolve_path("mid/leaf")
        assert resolved.found
        assert resolved.target == "value"
        # One client->server trip; the per-component hops ran server-side.
        assert world.network.message_count(node_a, node_b) == 1
        assert root.oid in resolved.path_oids
        assert mid.oid in resolved.path_oids

    def test_missing_name_returned_not_raised(self, tree):
        world, client, root, mid, _, _ = tree
        with client.activate():
            resolved = root.resolve_path("mid/ghost")
        assert not resolved.found
        assert resolved.target is None
        assert resolved.missing == "mid/ghost"
        assert mid.oid in resolved.path_oids  # enough to invalidate on bind

    def test_non_context_intermediate_raises(self, tree):
        world, client, root, mid, _, _ = tree
        with client.activate():
            with pytest.raises(NotAContextError):
                root.resolve_path("mid/leaf/deeper")

    def test_walk_crossing_nodes_delegates_once(self, world):
        node_a = world.create_node("a")
        node_b = world.create_node("b")
        node_c = world.create_node("c")
        client = node_a.create_domain("client")
        root = MemoryContext(node_b.nucleus)
        far = MemoryContext(node_c.nucleus)
        root.bind("far", far)
        far.bind("leaf", "far-value")
        with client.activate():
            resolved = root.resolve_path("far/leaf")
        assert resolved.target == "far-value"
        # a->b for the walk, b->c for the delegated remainder.
        assert world.network.message_count(node_a, node_b) == 1
        assert world.network.message_count(node_b, node_c) == 1
        assert far.oid in resolved.path_oids

    def test_first_hop_acl_checked_for_real_client(self, world):
        node_a = world.create_node("a")
        node_b = world.create_node("b")
        client = world.create_user_domain(node_a)
        locked = MemoryContext(
            node_b.nucleus,
            acl=Acl(owner="root", world_resolve=False, world_bind=False),
        )
        locked.bind("x", 1)
        with client.activate():
            with pytest.raises(PermissionDeniedError):
                locked.resolve_path("x")


class TestOneHopNameCache:
    def test_one_hop_miss_uses_single_message(self, world):
        node_a = world.create_node("a")
        node_b = world.create_node("b")
        client = node_a.create_domain("client")
        root = MemoryContext(node_b.nucleus)
        sub = root.create_context("sub")
        sub.bind("leaf", "v")
        cache = NameCache(world, one_hop=True)
        with client.activate():
            assert cache.resolve(root, "sub/leaf") == "v"
        assert world.network.message_count(node_a, node_b) == 1
        # Invalidation still precise: mutate the traversed context.
        sub.bind("other", 2)
        assert len(cache) == 0
