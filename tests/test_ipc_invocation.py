"""Unit tests for location-independent invocation: path selection,
charging, revocation, and payload accounting."""

import threading

import pytest

from repro.errors import NameNotFoundError, RevokedObjectError, UnixError
from repro.ipc.compound import compound_region
from repro.ipc.invocation import (
    bytes_in,
    calling_domain,
    current_domain,
    operation,
)
from repro.ipc.object import SpringObject
from repro.unix.posixlike import Posix
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

    def test_bytes_in_scalar_containers_and_subclasses(self):
        # A container of exact scalars is measured in one pass; anything
        # else, subclasses of the buffer and container types included,
        # is looked into item by item.
        class Blob(bytes):
            pass

        class Pages(dict):
            pass

        assert bytes_in((1, 2.5, "s", None, True)) == 0
        assert bytes_in({"k": 1, "v": "x"}) == 0
        assert bytes_in([Blob(b"abc"), 1]) == 3
        assert bytes_in((Pages({0: b"xy"}), [[b"z"]])) == 3
        assert bytes_in([object()]) == 0  # an object reference is free

    def test_remote_payload_charged_both_ways(self, setup):
        world, echo, _, _, remote = setup
        with remote.activate():
            echo.bulk(b"x" * 1024)
        # Request carries 1 KB, reply 2 KB.
        assert world.network.bytes_moved == 3 * 1024

    def test_keyword_payload_is_charged_too(self, setup):
        world, echo, _, _, remote = setup
        with remote.activate():
            echo.bulk(data=b"x" * 1024)
        assert world.network.bytes_moved == 3 * 1024

    def test_local_calls_carry_no_network_payload(self, setup):
        world, echo, _, peer, _ = setup
        with peer.activate():
            echo.bulk(b"x" * 1024)
        assert world.network.bytes_moved == 0


class TestRevocation:
    def test_revoked_object_raises(self, setup):
        _, echo, _, peer, _ = setup
        assert not echo.revoked
        echo.revoke()
        assert echo.revoked
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


class Probe(SpringObject):
    """Records ``(current_domain(), calling_domain())`` inside its
    operation, then runs ``then`` there, if given."""

    def __init__(self, domain) -> None:
        super().__init__(domain)
        self.seen = []

    @operation
    def look(self, then=None):
        self.seen.append(where())
        if then is not None:
            return then()

    @operation
    def resolve(self, path):
        """The one call ``Posix.open`` makes on its root: not found."""
        self.seen.append(where())
        raise NameNotFoundError(path)


def where():
    return current_domain(), calling_domain()


class TestDomainStack:
    """``current_domain()`` and ``calling_domain()`` at every depth: an
    activation sets the first and keeps the second, an operation body
    sets both, and leaving either puts back what was there."""

    def test_activation_inside_a_body_inside_an_activation(self, setup):
        _, _, server, peer, far = setup
        inner = Probe(peer)
        depths = []

        def in_body():
            depths.append(where())
            with far.activate():
                depths.append(where())
                inner.look(lambda: depths.append(where()))
                depths.append(where())
            depths.append(where())

        assert where() == (None, None)
        with peer.activate():
            assert where() == (peer, None)
            Probe(server).look(in_body)
            assert where() == (peer, None)
        assert where() == (None, None)
        assert depths == [
            (server, peer),  # the body: server active, peer called it
            (far, peer),  # an activation keeps the caller
            (peer, far),  # far invoked inner, served by peer
            (far, peer),
            (server, peer),
        ]
        assert inner.seen == [(peer, far)]

    def test_a_posix_call(self, setup):
        _, _, server, peer, _ = setup
        root = Probe(server)
        posix = Posix(root, peer)
        with pytest.raises(UnixError):
            posix.open("missing")
        assert where() == (None, None)
        with server.activate():
            with pytest.raises(UnixError):
                posix.open("missing")
            assert where() == (server, None)
        # The call runs on behalf of the process's domain, which is the
        # caller whatever was active around it.
        assert root.seen == [(server, peer), (server, peer)]

    def test_a_raising_op_leaves_the_stack_as_it_found_it(self, setup):
        _, _, server, peer, _ = setup
        depths = []

        def in_body():
            before = where()
            with pytest.raises(NameNotFoundError):
                Probe(peer).resolve("x")
            depths.append((before, where()))

        with peer.activate():
            with pytest.raises(NameNotFoundError):
                Probe(server).resolve("y")
            assert where() == (peer, None)
            Probe(server).look(in_body)
            assert where() == (peer, None)
        assert where() == (None, None)
        assert depths == [((server, peer), (server, peer))]

    def test_two_threads_keep_their_own_stacks(self, setup):
        _, _, server, peer, far = setup
        both_inside = threading.Barrier(2, timeout=10)
        seen = {}

        def client(domain):
            depths = [where()]
            with domain.activate():
                depths.append(where())
                Probe(server).look(
                    lambda: (both_inside.wait(), depths.append(where()))
                )
                depths.append(where())
            depths.append(where())
            seen[domain.name] = depths

        threads = [
            threading.Thread(target=client, args=(domain,))
            for domain in (peer, far)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        for domain in (peer, far):
            assert seen[domain.name] == [
                (None, None), (domain, None), (server, domain),
                (domain, None), (None, None),
            ]

    def test_a_compound_regions_origin(self, setup):
        world, _, server, peer, _ = setup
        origins = []

        def in_body():
            with compound_region(world) as region:
                origins.append((region.origin, where()))

        with compound_region(world) as region:
            assert region.origin is None
        with peer.activate():
            with compound_region(world) as region:
                assert region.origin is peer
                assert where() == (peer, None)
                Probe(server).look(in_body)
        # Opened inside a body, a region's origin is the server.
        assert origins == [(server, (server, peer))]


def test_a_node_and_a_domain_name_themselves(world):
    """What a failure message shows of a node and a domain: names, and
    the node's domains by name."""
    node = world.create_node("n1")
    domain = node.create_domain("srv")
    assert repr(domain) == "<Domain 'srv' on 'n1'>"
    assert repr(node) == "<Node 'n1' domains=['naming', 'nucleus', 'srv']>"
