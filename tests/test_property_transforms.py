"""Property-based tests for the transform layers (COMPFS, CRYPTFS) and
the naming system."""

import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import NameNotFoundError
from repro.fs.compfs import _HEADER, CompFs, pack_compressed, unpack_compressed
from repro.fs.cryptfs import CryptFs, xor_block
from repro.fs.sfs import create_sfs
from repro.ipc.domain import Credentials
from repro.naming.context import MemoryContext
from repro.storage.block_device import RamDevice
from repro.types import PAGE_SIZE
from repro.world import World


class TestCompressionFormat:
    @given(blob=st.binary(max_size=64 * 1024))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, blob):
        assert unpack_compressed(pack_compressed(blob)) == blob

    @given(blob=st.binary(min_size=1, max_size=8192), level=st.integers(1, 9))
    @settings(max_examples=50, deadline=None)
    def test_any_level_roundtrips(self, blob, level):
        """The reader takes a zlib stream of any level after the header."""
        header = pack_compressed(blob)[:_HEADER.size]
        assert unpack_compressed(header + zlib.compress(blob, level)) == blob


class TestCipher:
    @given(
        data=st.binary(max_size=PAGE_SIZE),
        key=st.binary(min_size=1, max_size=32),
        block=st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_involution(self, data, key, block):
        assert xor_block(xor_block(data, key, block), key, block) == data

    @given(data=st.binary(min_size=32, max_size=256))
    @settings(max_examples=50, deadline=None)
    def test_blocks_encrypt_differently(self, data):
        a = xor_block(data, b"key", 0)
        b = xor_block(data, b"key", 1)
        assert a != b


def _layer_roundtrip(layer_factory, writes):
    world = World()
    node = world.create_node("prop")
    device = RamDevice(node.nucleus, "ram", 8192)
    sfs = create_sfs(node, device)
    layer = layer_factory(node)
    layer.stack_on(sfs.top)
    user = world.create_user_domain(node)
    oracle = bytearray()
    with user.activate():
        f = layer.create_file("prop.bin")
        for offset, data in writes:
            f.write(offset, data)
            if len(oracle) < offset + len(data):
                oracle.extend(bytes(offset + len(data) - len(oracle)))
            oracle[offset : offset + len(data)] = data
        f.sync()
        assert f.get_length() == len(oracle)
        assert f.read(0, len(oracle)) == bytes(oracle)
        # And through a fresh handle after sync.
        again = layer.resolve("prop.bin")
        assert again.read(0, len(oracle)) == bytes(oracle)


write_lists = st.lists(
    st.tuples(
        st.integers(0, 2 * PAGE_SIZE),
        st.binary(min_size=1, max_size=PAGE_SIZE),
    ),
    min_size=1,
    max_size=10,
)


class TestTransformLayersPreserveData:
    @given(writes=write_lists)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_compfs(self, writes):
        _layer_roundtrip(
            lambda node: CompFs(
                node.create_domain("cz", Credentials("c", True)), coherent=True
            ),
            writes,
        )

    @given(writes=write_lists)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cryptfs(self, writes):
        _layer_roundtrip(
            lambda node: CryptFs(
                node.create_domain("cy", Credentials("c", True)), key=b"prop"
            ),
            writes,
        )


names = st.text(
    alphabet=st.characters(blacklist_characters="/\0", min_codepoint=33),
    min_size=1,
    max_size=24,
)


class TestNamingProperties:
    @given(bindings=st.dictionaries(names, st.integers(), max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_bind_resolve_list_consistent(self, bindings):
        world = World()
        node = world.create_node("n")
        context = MemoryContext(node.nucleus)
        for name, value in bindings.items():
            context.bind(name, value)
        assert dict(context.list_bindings()) == bindings
        for name, value in bindings.items():
            assert context.resolve(name) == value

    @given(
        bindings=st.dictionaries(names, st.integers(), min_size=1, max_size=10),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_unbind_removes_exactly_one(self, bindings, data):
        world = World()
        node = world.create_node("n")
        context = MemoryContext(node.nucleus)
        for name, value in bindings.items():
            context.bind(name, value)
        victim = data.draw(st.sampled_from(sorted(bindings)))
        context.unbind(victim)
        with pytest.raises(NameNotFoundError):
            context.resolve(victim)
        remaining = dict(bindings)
        del remaining[victim]
        assert dict(context.list_bindings()) == remaining

    @given(path=st.lists(names, min_size=1, max_size=6, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_compound_resolution_through_chain(self, path):
        world = World()
        node = world.create_node("n")
        root = MemoryContext(node.nucleus)
        current = root
        for component in path[:-1]:
            current = current.create_context(component)
        current.bind(path[-1], "leaf-value")
        assert root.resolve("/".join(path)) == "leaf-value"
