"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.fs.sfs import create_sfs
from repro.storage.block_device import BlockDevice, RamDevice
from repro.storage.volume import Volume
from repro.world import World

#: CI's search depth (``--hypothesis-profile=deep``: the fsck search in
#: the chaos job, the wire codec in the socket-transport job) for the
#: property tests that leave ``max_examples`` to the profile.
settings.register_profile("deep", max_examples=1500)


@pytest.fixture
def world() -> World:
    return World()


@pytest.fixture
def node(world):
    return world.create_node("testnode")


@pytest.fixture
def user(world, node):
    return world.create_user_domain(node)


@pytest.fixture
def device(node) -> BlockDevice:
    return BlockDevice(node.nucleus, "sd0", num_blocks=8192)


@pytest.fixture
def ram_device(node) -> RamDevice:
    return RamDevice(node.nucleus, "ram0", num_blocks=8192)


@pytest.fixture
def volume(ram_device) -> Volume:
    return Volume.mkfs(ram_device)


@pytest.fixture
def sfs(world, node, device):
    """The production configuration: coherency over disk, two domains."""
    return create_sfs(node, device, placement="two_domains", cache=True)


@pytest.fixture
def sfs_factory(world):
    """Build independent SFS instances (own node+device per call)."""
    counter = [0]

    def build(placement: str = "two_domains", cache: bool = True):
        counter[0] += 1
        node = world.create_node(f"sfs-node-{counter[0]}")
        device = BlockDevice(node.nucleus, "sd0", num_blocks=8192)
        return node, create_sfs(node, device, placement=placement, cache=cache)

    return build
