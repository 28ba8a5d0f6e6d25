"""The wire codec and receive-side framing on their own (no sockets):
round trips over the whole value grammar, byte-for-byte goldens, hostile
input, ``FrameBuffer`` reassembly, and the copy budget of a large frame."""

import array
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UnixError
from repro.fs.attributes import FileAttributes
from repro.ipc import wire
from repro.storage.inode import FileType

REQUEST_PAYLOAD = {"target": "fs", "args": [3, 4096, 8192], "kwargs": {}}
ATTRS = FileAttributes(
    size=77, atime_us=1, mtime_us=2, ctime_us=3,
    ftype=FileType.DIRECTORY, nlink=2,
)


# --- strategies -------------------------------------------------------------

def exceptions():
    """An instance of every class the wire carries by name."""
    def build(name, message):
        cls = wire._exc_registry()[name]
        if cls is UnixError:
            return cls("EIO", message)
        return cls(message)

    return st.builds(
        build,
        st.sampled_from(sorted(wire._exc_registry())),
        # KeyError's repr-quoting and UnixError's "[CODE] " prefix are
        # only stable for plain messages.
        st.text(alphabet="abc xyz", min_size=1, max_size=8).map(str.strip)
        .filter(bool),
    )


attributes = st.builds(
    FileAttributes,
    size=st.integers(0, 2**40), atime_us=st.integers(0, 2**50),
    mtime_us=st.integers(0, 2**50), ctime_us=st.integers(0, 2**50),
    ftype=st.sampled_from(list(FileType)), nlink=st.integers(0, 9),
)

leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
    st.floats(allow_nan=False), st.text(), st.binary(), attributes,
)

values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=20,
)


def same(a, b):
    """Equality that also tells list from tuple and True from 1."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


def body_of(frame):
    return memoryview(frame)[4:]


# --- round trips ------------------------------------------------------------

class TestRoundTrip:
    @given(values)
    @settings(max_examples=200, deadline=None)
    def test_value_grammar(self, value):
        encoded = wire.encode_value(value)
        assert same(wire.decode_value(encoded), value)
        assert same(wire.decode_value(memoryview(encoded)), value)

    @given(values, st.integers(0, 2**32 - 1), st.text(max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_frames(self, value, seq, name):
        frame = wire.pack_frame(wire.REPLY, seq, name, "dst", "op", value)
        assert len(frame) == 4 + int.from_bytes(frame[:4], "big")
        msg = wire.unpack_body(body_of(frame))
        assert (msg.kind, msg.seq, msg.src, msg.dst, msg.op, msg.nbytes) == (
            wire.REPLY, seq, name, "dst", "op", len(frame)
        )
        assert same(msg.payload, value)

    @given(exceptions())
    @settings(max_examples=100, deadline=None)
    def test_every_registered_exception(self, exc):
        back = wire.decode_value(wire.encode_value(exc))
        assert type(back) is type(exc) and str(back) == str(exc)
        assert getattr(back, "code", None) == getattr(exc, "code", None)

    @given(st.binary(max_size=64))
    def test_buffer_payloads_decode_as_bytes(self, data):
        expected = wire.encode_value(data)
        for payload in (bytearray(data), memoryview(data),
                        memoryview(bytearray(data))):
            assert wire.encode_value(payload) == expected
        back = wire.decode_value(memoryview(expected))
        assert type(back) is bytes and back == data

    def test_awkward_memoryviews(self):
        words = array.array("I", [1, 2, 3])
        assert wire.decode_value(
            wire.encode_value(memoryview(words))
        ) == words.tobytes()
        strided = memoryview(b"abcdef")[::2]
        assert wire.decode_value(wire.encode_value(strided)) == b"ace"

    def test_subclasses_and_enums_take_the_slow_path(self):
        class Blob(bytes):
            pass

        assert wire.decode_value(wire.encode_value(Blob(b"xy"))) == b"xy"
        assert wire.decode_value(wire.encode_value(FileType.DIRECTORY)) == 2
        with pytest.raises(wire.WireEncodeError):
            wire.encode_value({"set": {1, 2}})

    def test_decoded_payload_does_not_alias_the_buffer(self):
        frame = wire.pack_frame(wire.REPLY, 1, "a", "b", "op", [b"data", "s"])
        msg = wire.unpack_body(body_of(frame))
        frame[:] = bytes(len(frame))  # the receive buffer is reused
        assert msg.payload == [b"data", "s"] and msg.src == "a"


class TestGoldenBytes:
    """The format did not move: these literals are what the previous
    (stream-based, if-chain) codec produced for the same inputs."""

    def test_request(self):
        frame = wire.pack_frame(
            wire.REQUEST, 7, "client", "server", "pread", REQUEST_PAYLOAD
        )
        assert frame.hex() == (
            "0000006c53570101000000070006636c69656e74000673657276657200057072"
            "6561640a0000000300000006746172676574060000000266730000000461726773"
            "0800000003030000000000000003030000000000001000030000000000002000"
            "000000066b77617267730a00000000"
        )

    def test_file_attributes_reply(self):
        frame = wire.pack_frame(wire.REPLY, 7, "server", "client", "fstat", ATTRS)
        assert frame.hex() == (
            "000000ab535701020000000700067365727665720006636c69656e7400056673"
            "7461740b0000000e46696c65417474726962757465730a000000060000000473"
            "697a6503000000000000004d000000086174696d655f75730300000000000000"
            "01000000086d74696d655f7573030000000000000002000000086374696d655f"
            "7573030000000000000003000000056674797065030000000000000002000000"
            "056e6c696e6b030000000000000002"
        )


# --- hostile input ----------------------------------------------------------

def only_wire_error(decode, data):
    try:
        decode(data)
    except wire.WireError:
        pass


class TestHostileInput:
    @given(st.binary(max_size=96))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, junk):
        header = bytes(body_of(
            wire.pack_frame(wire.REQUEST, 1, "a", "b", "op", None)
        ))[:-1]
        for data in (junk, memoryview(junk)):
            only_wire_error(wire.decode_value, data)
            only_wire_error(wire.unpack_body, data)
            only_wire_error(wire.unpack_body, header + bytes(data))

    @given(values, st.data())
    @settings(max_examples=150, deadline=None)
    def test_corrupted_valid_frames(self, value, data):
        body = bytearray(body_of(
            wire.pack_frame(wire.REPLY, 1, "src", "dst", "op", value)
        ))
        at = data.draw(st.integers(0, len(body) - 1))
        body[at] = data.draw(st.integers(0, 255))
        only_wire_error(wire.unpack_body, body)
        only_wire_error(wire.unpack_body, memoryview(body))

    @pytest.mark.parametrize("payload", [
        REQUEST_PAYLOAD, ATTRS, UnixError("ENOENT", "gone"), -(2**70),
        [("a", 1.5, None, True)], b"\x00" * 40,
    ])
    def test_every_truncation(self, payload):
        body = bytes(body_of(
            wire.pack_frame(wire.REPLY, 1, "src", "dst", "op", payload)
        ))
        value = wire.encode_value(payload)
        for cut in range(len(body)):
            with pytest.raises(wire.WireError):
                wire.unpack_body(memoryview(body)[:cut])
        for cut in range(len(value)):
            with pytest.raises(wire.WireError):
                wire.decode_value(value[:cut])

    @pytest.mark.parametrize("body", [
        b"SW\x01\x01\x00\x00\x00\x01\x00\x02\xff\xfe\x00\x00\x00\x00\x00",
        b"SW\x01\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00"
        b"\x06\x00\x00\x00\x02\xc3\x28",
    ], ids=["header", "string-value"])
    def test_invalid_utf8_is_a_wire_error(self, body):
        with pytest.raises(wire.WireError):
            wire.unpack_body(body)

    def test_malformed_struct_and_exception_fields(self):
        def tagged(tag, fields):
            return bytes([tag]) + wire.encode_value(fields)

        name = wire.encode_value("FileAttributes")[1:]
        for data in (
            bytes([0x0B]) + name + wire.encode_value({"size": 1}),
            bytes([0x0B]) + name + wire.encode_value([1, 2]),
            bytes([0x0B]) + wire.encode_value("NoSuchStruct")[1:] + b"\x00",
            tagged(0x0C, {"type": "UnixError", "message": 5}),
            tagged(0x0C, {"message": "no type"}),
            tagged(0x0C, None),
        ):
            with pytest.raises(wire.WireError):
                wire.decode_value(data)

    def test_nesting_bomb(self):
        with pytest.raises(wire.WireError):
            wire.decode_value(b"\x08\x00\x00\x00\x01" * 100_000)


# --- FrameBuffer ------------------------------------------------------------

def feed(frames, data, chunk=None):
    """Deliver ``data`` as a socket would — into ``writable()``, at most
    ``chunk`` bytes per read — and collect the bodies that come out."""
    bodies = []
    data = memoryview(data)
    while data:
        room = frames.writable()
        assert len(room) > 0
        count = min(len(room), len(data), chunk or len(data))
        room[:count] = data[:count]
        frames.received(count)
        data = data[count:]
        while True:
            body = frames.next_frame()
            if body is None:
                break
            bodies.append(bytes(body))
    return bodies


def frame_of(payload, seq=1):
    return bytes(wire.pack_frame(wire.REPLY, seq, "s", "c", "op", payload))


class TestFrameBuffer:
    def test_two_frames_in_one_read(self):
        first, second = frame_of("one", 1), frame_of(b"two" * 9, 2)
        frames = wire.FrameBuffer(256)
        assert feed(frames, first + second) == [first[4:], second[4:]]
        assert frames.next_frame() is None and len(frames.writable()) == 256

    def test_one_frame_split_at_every_boundary(self):
        frame = frame_of({"k": [1, b"bytes", "text"]})
        frames = wire.FrameBuffer(256)
        for cut in range(1, len(frame)):
            assert feed(frames, frame[:cut]) == []
            assert feed(frames, frame[cut:]) == [frame[4:]]

    @pytest.mark.parametrize("chunk", [1, 3, 7, 64, None])
    def test_stream_of_frames_in_small_reads(self, chunk):
        stream = [frame_of(b"x" * size, seq) for seq, size in
                  enumerate([0, 1, 50, 5, 200, 17, 3, 90])]
        frames = wire.FrameBuffer(128)
        bodies = feed(frames, b"".join(stream), chunk)
        assert bodies == [frame[4:] for frame in stream]
        assert [wire.unpack_body(b).seq for b in bodies] == list(range(8))

    def test_frame_larger_than_the_buffer_then_a_small_one(self):
        big, small = frame_of(b"B" * 1000, 1), frame_of("small", 2)
        frames = wire.FrameBuffer(64)
        assert feed(frames, big + small, chunk=48) == [big[4:], small[4:]]
        # The one-off buffer is gone; the home buffer is back in use.
        assert len(frames.writable()) <= 64

    def test_clear_forgets_a_partial_frame(self):
        frame = frame_of("whole")
        frames = wire.FrameBuffer(64)
        assert feed(frames, frame[:9]) == []
        frames.clear()
        assert feed(frames, frame) == [frame[4:]]

    def test_oversized_announcement_refused_before_allocating(self):
        frames = wire.FrameBuffer(64)
        tracemalloc.start()
        try:
            with pytest.raises(wire.WireError):
                feed(frames, (wire.MAX_FRAME + 1).to_bytes(4, "big") + b"SW")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestCopyBudget:
    def test_one_mib_payload_peaks_below_2_5x(self):
        payload = bytes(range(256)) * 4096
        tracemalloc.start()
        try:
            frame = wire.pack_frame(wire.REPLY, 1, "s", "c", "read_file", payload)
            msg = wire.unpack_body(body_of(frame))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert msg.payload == payload
        assert peak < 2.5 * len(payload)
