"""The Python frames the invocation spine enters, pinned.

Every invocation runs the ``@operation`` wrapper, every charge
``SimClock.advance``, every received frame a ``FrameBuffer`` call; what
else they enter is their cost.  Bytecode counts differ between the
Python versions CI runs, frame counts do not, so these tests count the
``"call"`` events ``sys.setprofile`` reports (a C function, such as a
``functools.partial`` charge or a socket's ``recv_into``, reports
``"c_call"`` instead) and compare the names, in order, with a list.  A
change that adds a frame to the spine fails here and must say why."""

import gc
import io
import sys

import pytest

from repro.ipc import wire
from repro.ipc.compound import compound_region
from repro.ipc.invocation import operation
from repro.ipc.object import SpringObject
from repro.sim.costs import FIXED_CHARGES
from repro.world import World

WRAPPER = "operation.<locals>.wrapper"


class Echo(SpringObject):
    @operation
    def ping(self, n=0):
        return n


def entered(call, *args):
    """Qualified names of the Python frames ``call(*args)`` enters, in
    the order it enters them (``call`` itself first), and its result."""
    names = []

    def hook(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_qualname)

    # A collection inside the call would add its callbacks' frames (the
    # suite registers one), so none may start while the hook listens.
    gc.collect()
    gc.disable()
    sys.setprofile(hook)
    try:
        result = call(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return names, result


@pytest.fixture
def spine():
    world = World()
    near, far = world.create_node("near"), world.create_node("far")
    server = near.create_domain("server")
    domains = {
        "local": server,
        "cross_domain": near.create_domain("peer"),
        "network": far.create_domain("remote"),
    }
    return world, Echo(server), domains


#: The frames one call of ``Echo.ping(3)`` enters, by invocation path: a
#: cross-domain call enters the wrapper, the charge's ``advance`` and the
#: body, nothing else.
PATHS = {
    "direct": [WRAPPER, "Echo.ping"],
    "local": [WRAPPER, "SimClock.advance", "Echo.ping"],
    "cross_domain": [WRAPPER, "SimClock.advance", "Echo.ping"],
    "network": [
        WRAPPER, "bytes_in", "Network.transfer", "Network._check_reachable",
        "Network._account", "Charger.network",
        "CostModel.network_transfer_us", "SimClock.advance", "Echo.ping",
        "bytes_in",
    ],
    "network_batched": [
        WRAPPER, "bytes_in", "_absorbing_region", "CompoundRegion.absorbs",
        "CompoundRegion.absorb", "Network.ensure_reachable",
        "Network._check_reachable", "Echo.ping", "bytes_in",
    ],
}


class TestInvocationFrames:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_each_path_enters_its_listed_frames(self, spine, path):
        world, echo, domains = spine
        if path == "direct":
            assert entered(echo.ping, 3) == (PATHS[path], 3)
        elif path == "network_batched":
            with domains["network"].activate(), compound_region(world):
                assert entered(echo.ping, 3) == (PATHS[path], 3)
        else:
            with domains[path].activate():
                assert entered(echo.ping, 3) == (PATHS[path], 3)
        # The path taken is the one the counters name.
        assert world.counters.get(f"invoke.{path}") == 1
        assert world.counters.get("op.ping") == 1

    def test_the_wrapper_keeps_what_tools_find_it_by(self):
        assert Echo.ping._is_operation
        assert Echo.ping.__wrapped__.__qualname__ == "Echo.ping"


class TestChargeFrames:
    @pytest.mark.parametrize("charge", sorted(FIXED_CHARGES))
    def test_a_fixed_charge_enters_only_advance(self, charge):
        world = World()
        assert entered(getattr(world.charge, charge)) == (
            ["SimClock.advance"], None
        )
        # The model's constant, under the charge's category.
        assert world.clock.categories() == {
            FIXED_CHARGES[charge]: getattr(world.cost_model, f"{charge}_us")
        }


class TestReceiveFrames:
    def test_a_whole_frame_is_one_call(self):
        frame = bytes(wire.pack_frame(wire.REQUEST, 7, "fs", "stat", ["a"]))
        frames = wire.FrameBuffer()
        # BytesIO.readinto, like a socket's recv_into, is a C function.
        names, body = entered(frames.receive, io.BytesIO(frame).readinto)
        assert names == ["FrameBuffer.receive"]
        assert bytes(body) == frame[4:] and frames.pending() == 0
