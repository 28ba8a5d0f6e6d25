"""Unit tests for interface narrowing, interposition plumbing, and the
network model (including partitions)."""

import pytest

from repro.errors import NarrowError, NodeCrashedError
from repro.ipc.interpose import InterposerBase
from repro.ipc.invocation import operation
from repro.ipc.narrow import narrow, narrow_or_raise
from repro.ipc.network import NetworkPartitionError
from repro.ipc.object import SpringObject
from repro.world import World


class Base(SpringObject):
    @operation
    def hello(self) -> str:
        return "base"


class Extended(Base):
    @operation
    def extra(self) -> str:
        return "extended"


class TestNarrow:
    def test_narrow_to_own_type(self, world):
        node = world.create_node("n")
        obj = Extended(node.nucleus)
        assert narrow(obj, Extended) is obj

    def test_narrow_to_supertype(self, world):
        node = world.create_node("n")
        obj = Extended(node.nucleus)
        assert narrow(obj, Base) is obj

    def test_narrow_to_subtype_fails_for_base(self, world):
        node = world.create_node("n")
        obj = Base(node.nucleus)
        assert narrow(obj, Extended) is None

    def test_narrow_or_raise(self, world):
        node = world.create_node("n")
        obj = Base(node.nucleus)
        assert narrow_or_raise(obj, Base) is obj
        with pytest.raises(NarrowError):
            narrow_or_raise(obj, Extended)

    def test_narrow_unrelated_type(self):
        assert narrow("a string", Base) is None


class Wrapper(InterposerBase):
    @operation
    def hello(self) -> str:
        return self.forward("hello")

    @operation
    def blocked(self) -> str:
        self.record_local("blocked")
        return "handled locally"


class TestInterposerBase:
    def test_forwarding_records_calls(self, world):
        node = world.create_node("n")
        target = Base(node.nucleus)
        wrapper = Wrapper(node.nucleus, target)
        assert wrapper.hello() == "base"
        assert wrapper.forwarded_count("hello") == 1
        assert wrapper.intercepted("hello") == 0

    def test_local_handling_records(self, world):
        node = world.create_node("n")
        wrapper = Wrapper(node.nucleus, Base(node.nucleus))
        assert wrapper.blocked() == "handled locally"
        assert wrapper.intercepted("blocked") == 1


class TestNetwork:
    @pytest.fixture
    def pair(self):
        world = World()
        return world, world.create_node("a"), world.create_node("b")

    def test_transfer_counts(self, pair):
        world, a, b = pair
        world.network.transfer(a, b, 100)
        world.network.transfer(a, b, 50)
        world.network.transfer(b, a, 10)
        assert world.network.messages == 3
        assert world.network.bytes_moved == 160
        assert world.network.message_count(a, b) == 2
        assert world.network.message_count(b, a) == 1

    def test_transfer_charges_clock(self, pair):
        world, a, b = pair
        world.network.transfer(a, b, 1024)
        expected = world.cost_model.network_transfer_us(1024)
        assert world.clock.charged("network") == expected

    def test_partition_blocks_both_directions(self, pair):
        world, a, b = pair
        world.network.partition(a, b)
        with pytest.raises(NetworkPartitionError):
            world.network.transfer(a, b, 0)
        with pytest.raises(NetworkPartitionError):
            world.network.transfer(b, a, 0)

    def test_heal_restores(self, pair):
        world, a, b = pair
        world.network.partition(a, b)
        world.network.heal(a, b)
        world.network.transfer(a, b, 0)
        assert world.network.messages == 1

    def test_partition_blocks_invocations(self, pair):
        world, a, b = pair
        server = Base(a.create_domain("server"))
        client = b.create_domain("client")
        world.network.partition(a, b)
        with client.activate():
            with pytest.raises(NetworkPartitionError):
                server.hello()
        world.network.heal_all()
        with client.activate():
            assert server.hello() == "base"

    def test_a_reply_payload_is_refused_on_a_cut_link(self, pair):
        # A payload does not re-poll the fault schedule, but a partition
        # or a crash made since the request still stops it, uncharged.
        world, a, b = pair
        world.network.payload(a, b, 100)
        world.network.partition(a, b)
        with pytest.raises(NetworkPartitionError):
            world.network.payload(a, b, 100)
        world.network.heal(a, b)
        b.crashed = True
        with pytest.raises(NodeCrashedError):
            world.network.payload(a, b, 100)
        assert world.network.bytes_moved == 100
        assert world.clock.charge_count("network") == 1

    def test_partition_is_pairwise(self):
        world = World()
        a, b, c = (world.create_node(n) for n in "abc")
        world.network.partition(a, b)
        world.network.transfer(a, c, 0)
        world.network.transfer(c, b, 0)
        assert world.network.messages == 2


class TestNodesAndDomains:
    def test_duplicate_node_rejected(self):
        world = World()
        world.create_node("x")
        with pytest.raises(ValueError):
            world.create_node("x")

    def test_duplicate_domain_rejected(self, world):
        node = world.create_node("n")
        node.create_domain("d")
        with pytest.raises(ValueError):
            node.create_domain("d")

    def test_nucleus_is_privileged(self, world):
        node = world.create_node("n")
        assert node.nucleus.credentials.privileged

    def test_user_domain_unprivileged(self, world):
        node = world.create_node("n")
        user = world.create_user_domain(node)
        assert not user.credentials.privileged

    def test_oids_unique(self, world):
        node = world.create_node("n")
        objs = [Base(node.nucleus) for _ in range(10)]
        assert len({o.oid for o in objs}) == 10
