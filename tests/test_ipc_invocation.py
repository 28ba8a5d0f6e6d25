"""Unit tests for location-independent invocation: path selection,
charging, revocation, and payload accounting."""

import threading

import pytest

from repro.errors import RevokedObjectError
from repro.ipc.compound import compound_region
from repro.ipc.invocation import (
    bytes_in,
    calling_domain,
    current_domain,
    operation,
)
from repro.ipc.object import SpringObject
from repro.world import World


class Echo(SpringObject):
    """Minimal test server."""

    @operation
    def ping(self) -> str:
        return "pong"

    @operation
    def where_am_i(self):
        return current_domain()

    @operation
    def bulk(self, data: bytes) -> bytes:
        return data * 2

    @operation
    def relay(self, other: "Echo") -> str:
        return other.ping()


@pytest.fixture
def world():
    return World()


@pytest.fixture
def setup(world):
    node_a = world.create_node("a")
    node_b = world.create_node("b")
    server_domain = node_a.create_domain("server")
    peer_domain = node_a.create_domain("peer")
    remote_domain = node_b.create_domain("remote")
    return world, Echo(server_domain), server_domain, peer_domain, remote_domain


class TestPathSelection:
    def test_same_domain_charges_local_call(self, setup):
        world, echo, server, _, _ = setup
        with server.activate():
            echo.ping()
        assert world.clock.charged("local_call") == world.cost_model.local_call_us
        assert world.counters.get("invoke.local") == 1

    def test_cross_domain_charges_cross_domain(self, setup):
        world, echo, _, peer, _ = setup
        with peer.activate():
            echo.ping()
        assert (
            world.clock.charged("cross_domain")
            == world.cost_model.cross_domain_call_us
        )
        assert world.counters.get("invoke.cross_domain") == 1

    def test_cross_node_charges_network(self, setup):
        world, echo, _, _, remote = setup
        with remote.activate():
            echo.ping()
        assert world.clock.charged("network") >= world.cost_model.network_rtt_us
        assert world.network.messages == 1

    def test_no_domain_is_free(self, setup):
        world, echo, _, _, _ = setup
        echo.ping()
        assert world.clock.now_us == 0.0
        assert world.counters.get("invoke.direct") == 1

    def test_nested_call_charged_relative_to_server(self, setup):
        world, echo, server, peer, _ = setup
        other = Echo(peer)
        with peer.activate():
            # peer->server is one crossing; server->peer (inside relay)
            # is another.
            echo.relay(other)
        assert world.counters.get("invoke.cross_domain") == 2

    def test_body_runs_in_server_domain(self, setup):
        _, echo, server, peer, _ = setup
        with peer.activate():
            assert echo.where_am_i() is server
        # And the caller's domain is restored afterwards.
        with peer.activate():
            echo.ping()
            assert current_domain() is peer


class TestPayloadAccounting:
    def test_bytes_in_scalars(self):
        assert bytes_in(42) == 0
        assert bytes_in("string") == 0
        assert bytes_in(None) == 0

    def test_bytes_in_bytes_like(self):
        assert bytes_in(b"abc") == 3
        assert bytes_in(bytearray(5)) == 5
        assert bytes_in(memoryview(b"xy")) == 2

    def test_bytes_in_containers(self):
        assert bytes_in({1: b"abcd", 2: b"ef"}) == 6
        assert bytes_in([b"a", (b"bc", 7)]) == 3

    def test_remote_payload_charged_both_ways(self, setup):
        world, echo, _, _, remote = setup
        with remote.activate():
            echo.bulk(b"x" * 1024)
        # Request carries 1 KB, reply 2 KB.
        assert world.network.bytes_moved == 3 * 1024

    def test_local_calls_carry_no_network_payload(self, setup):
        world, echo, _, peer, _ = setup
        with peer.activate():
            echo.bulk(b"x" * 1024)
        assert world.network.bytes_moved == 0


class TestRevocation:
    def test_revoked_object_raises(self, setup):
        _, echo, _, peer, _ = setup
        echo.revoke()
        with peer.activate():
            with pytest.raises(RevokedObjectError):
                echo.ping()

    def test_revocation_is_per_object(self, setup):
        _, echo, server, _, _ = setup
        other = Echo(server)
        echo.revoke()
        assert other.ping() == "pong"

    def test_check_live_helper(self, setup):
        _, echo, _, _, _ = setup
        echo.check_live()
        echo.revoke()
        with pytest.raises(RevokedObjectError):
            echo.check_live()


class TestCounters:
    def test_op_counter_by_name(self, setup):
        world, echo, _, peer, _ = setup
        with peer.activate():
            echo.ping()
            echo.ping()
        assert world.counters.get("op.ping") == 2

    def test_counters_delta(self, setup):
        world, echo, _, peer, _ = setup
        with peer.activate():
            echo.ping()
            snapshot = world.counters.snapshot()
            echo.ping()
        delta = world.counters.delta_since(snapshot)
        assert delta["op.ping"] == 1


class TestThreads:
    def test_a_new_thread_starts_with_empty_stacks(self, setup):
        """The domain, caller and compound-region stacks are per thread:
        a thread started inside an operation body, under an open region,
        sees none of the three."""
        world, echo, server, _, remote = setup
        seen = {}

        def body():
            seen["current"] = current_domain()
            seen["calling"] = calling_domain()
            with remote.activate():
                echo.ping()  # its own round trip, not the region's
            seen["after"] = current_domain()

        class Spawner(SpringObject):
            @operation
            def run(self) -> None:
                thread = threading.Thread(target=body)
                thread.start()
                thread.join(timeout=10)
                assert not thread.is_alive()

        with remote.activate(), compound_region(world):
            Spawner(server).run()
        assert world.counters.get("compound.batched_ops") == 1
        assert seen == {"current": None, "calling": None, "after": None}
        assert world.counters.get("invoke.network_batched") == 1
        assert world.counters.get("invoke.network") == 1
        assert world.network.messages == 2
