"""The wire codec and receive-side framing on their own (no sockets):
round trips over the whole value grammar, byte-for-byte goldens, hostile
input, int runs and the codec's shape arms against the per-item path,
``FrameBuffer`` reassembly and residency, and the copy budget of a large
frame."""

import array
import mmap
import os
import pathlib
import struct
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import UnixError
from repro.fs.attributes import FileAttributes
from repro.ipc import transport, wire
from repro.storage.inode import FileType

REQUEST_ARGS = [3, 4096, 8192]
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


def reply(value, seq=1, kind=wire.REPLY):
    return wire.pack_frame(kind, seq, "", "", value)


def raw_body(*parts, kind=wire.REQUEST, version=wire.VERSION,
             target=b"fs", op=b"op"):
    """A frame body put together by hand, for shapes ``pack_frame``
    refuses to produce; ``parts`` are already-encoded values."""
    return (b"SW" + bytes([version, kind]) + (1).to_bytes(4, "big")
            + bytes([len(target), len(op)]) + target + op + b"".join(parts))


names = st.text(max_size=255).filter(lambda s: len(s.encode()) <= 255)
kwargs_dicts = st.dictionaries(st.text(max_size=6), values, max_size=3)


# --- round trips ------------------------------------------------------------

class TestRoundTrip:
    @given(values)
    @settings(max_examples=200, deadline=None)
    def test_value_grammar(self, value):
        encoded = wire.encode_value(value)
        assert same(wire.decode_value(encoded), value)
        assert same(wire.decode_value(memoryview(encoded)), value)

    @given(values, st.integers(0, 2**32 - 1),
           st.sampled_from([wire.REPLY, wire.ERROR, wire.COMPOUND_REPLY]))
    @settings(max_examples=100, deadline=None)
    def test_frames(self, value, seq, kind):
        frame = reply(value, seq, kind)
        assert len(frame) == 4 + int.from_bytes(frame[:4], "big")
        msg = wire.unpack_body(body_of(frame))
        assert (msg.kind, msg.seq, msg.target, msg.op, msg.kwargs,
                msg.nbytes) == (kind, seq, "", "", {}, len(frame))
        assert same(msg.payload, value)

    @given(names, names, st.lists(values, max_size=4), kwargs_dicts,
           st.sampled_from([wire.REQUEST, wire.COMPOUND]))
    @settings(max_examples=150, deadline=None)
    def test_request_frames(self, target, op, args, kwargs, kind):
        frame = wire.pack_frame(kind, 9, target, op, args, kwargs)
        msg = wire.unpack_body(body_of(frame))
        assert (msg.kind, msg.seq, msg.target, msg.op, msg.nbytes) == (
            kind, 9, target, op, len(frame)
        )
        assert same(msg.payload, args) and same(msg.kwargs, kwargs)

    @given(attributes)
    def test_every_registered_struct(self, attrs):
        wire.encode_value(attrs)  # the builtin structs register lazily
        assert sorted(wire._STRUCTS) == ["FileAttributes"]
        back = wire.decode_value(wire.encode_value(attrs))
        assert back == attrs and type(back.ftype) is FileType

    def test_kwargs_add_exactly_the_dict_bytes(self):
        kwargs = {"offset": 8192, "flags": ["x"]}
        bare = wire.pack_frame(wire.REQUEST, 7, "fs", "pread", REQUEST_ARGS)
        empty = wire.pack_frame(wire.REQUEST, 7, "fs", "pread", REQUEST_ARGS, {})
        full = wire.pack_frame(wire.REQUEST, 7, "fs", "pread", REQUEST_ARGS, kwargs)
        assert bare == empty
        assert full[4:] == bare[4:] + wire.encode_value(kwargs)
        assert wire.unpack_body(body_of(full)).kwargs == kwargs

    def test_names_are_at_most_255_bytes(self):
        wire.pack_frame(wire.REQUEST, 1, "t" * 255, "é" * 127, [])
        for target, op in (("t" * 256, "op"), ("fs", "o" * 256),
                           ("fs", "é" * 128)):
            with pytest.raises(wire.WireEncodeError):
                wire.pack_frame(wire.REQUEST, 1, target, op, [])

    def test_names_are_encoded_once_and_the_cache_is_bounded(self):
        wire._names.cache_clear()
        frames = {bytes(wire.pack_frame(wire.REQUEST, 1, "fs", "stat", ["a"]))
                  for _ in range(3)}
        info = wire._names.cache_info()
        assert len(frames) == 1 and (info.misses, info.hits) == (1, 2)
        for index in range(info.maxsize + 10):
            wire.pack_frame(wire.REQUEST, 1, "fs", f"op{index}", [])
        assert wire._names.cache_info().currsize == info.maxsize

    @given(exceptions())
    @settings(max_examples=100, deadline=None)
    def test_every_registered_exception(self, exc):
        back = wire.decode_value(wire.encode_value(exc))
        assert type(back) is type(exc) and str(back) == str(exc)
        assert getattr(back, "code", None) == getattr(exc, "code", None)

    @pytest.mark.parametrize("exc", [UnixError("ENOENT"), KeyError("k")],
                             ids=["bare-code", "key"])
    def test_exception_messages_are_stable_under_re_encoding(self, exc):
        # A bare UnixError renders as its code alone, a KeyError as its
        # quoted key: neither may grow a prefix or quotes per crossing.
        back = exc
        for _ in range(3):
            back = wire.decode_value(wire.encode_value(back))
        assert type(back) is type(exc) and str(back) == str(exc)
        assert getattr(back, "code", None) == getattr(exc, "code", None)

    def test_a_struct_decodes_before_anything_was_encoded(self, monkeypatch):
        # The built-in structs register lazily, on first encode *or* first
        # decode: a client's first reply may carry one.
        encoded = wire.encode_value(ATTRS)
        monkeypatch.setattr(wire, "_STRUCTS", {})
        back = wire.decode_value(encoded)
        assert back == ATTRS and type(back.ftype) is FileType
        assert sorted(wire._STRUCTS) == ["FileAttributes"]

    def test_frames_over_max_frame_are_refused_at_the_sender(self, monkeypatch):
        body = len(wire.pack_frame(wire.REPLY, 1, "", "", b"x" * 100)) - 4
        monkeypatch.setattr(wire, "MAX_FRAME", body)
        wire.pack_frame(wire.REPLY, 1, "", "", b"x" * 100)  # exactly the cap
        with pytest.raises(wire.WireEncodeError, match="exceeds MAX_FRAME"):
            wire.pack_frame(wire.REPLY, 1, "", "", b"x" * 101)

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
        assert wire.decode_value(wire.encode_value([FileType.REGULAR])) == [1]
        with pytest.raises(wire.WireEncodeError):
            wire.encode_value({"set": {1, 2}})

    def test_decoded_payload_does_not_alias_the_buffer(self):
        frame = wire.pack_frame(wire.REQUEST, 1, "a", "op", [b"data", "s"],
                                {"k": b"v"})
        msg = wire.unpack_body(body_of(frame))
        frame[:] = bytes(len(frame))  # the receive buffer is reused
        assert msg.payload == [b"data", "s"] and msg.kwargs == {"k": b"v"}
        assert (msg.target, msg.op) == ("a", "op")


class TestGoldenBytes:
    """Format v2, byte for byte.  ``tests/golden/wire_v2_frames.txt``
    holds the frames a client and server exchange; CI's
    ``benchmarks/check_golden_drift.py`` prints the diff when it moves."""

    def test_request(self):
        frame = wire.pack_frame(wire.REQUEST, 7, "fs", "pread", REQUEST_ARGS)
        assert frame.hex() == (
            "0000003153570201000000070205667370726561640800000003030000000000"
            "000003030000000000001000030000000000002000"
        )

    def test_file_attributes_reply(self):
        frame = reply(ATTRS, seq=7)
        assert frame.hex() == (
            "00000058535702020000000700000b0000000e46696c65417474726962757465"
            "73080000000603000000000000004d0300000000000000010300000000000000"
            "02030000000000000003030000000000000002030000000000000002"
        )

    def test_committed_frames(self):
        from benchmarks.check_golden_drift import wire_v2_frames

        golden = pathlib.Path(__file__).parent / "golden" / "wire_v2_frames.txt"
        assert wire_v2_frames() == golden.read_text()


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
            wire.pack_frame(wire.REQUEST, 1, "a", "op", None)
        ))[:-1]
        for data in (junk, memoryview(junk)):
            only_wire_error(wire.decode_value, data)
            only_wire_error(wire.unpack_body, data)
            only_wire_error(wire.unpack_body, header + bytes(data))

    @given(values, st.data())
    @settings(max_examples=150, deadline=None)
    def test_corrupted_valid_frames(self, value, data):
        body = bytearray(body_of(
            wire.pack_frame(wire.REQUEST, 1, "fs", "op", [value], {"k": value})
        ))
        at = data.draw(st.integers(0, len(body) - 1))
        body[at] = data.draw(st.integers(0, 255))
        only_wire_error(wire.unpack_body, body)
        only_wire_error(wire.unpack_body, memoryview(body))

    @pytest.mark.parametrize("payload", [
        REQUEST_ARGS, ATTRS, UnixError("ENOENT", "gone"), -(2**70),
        [("a", 1.5, None, True)], b"\x00" * 40,
    ])
    def test_every_truncation(self, payload):
        value = wire.encode_value(payload)
        for cut in range(len(value)):
            with pytest.raises(wire.WireError):
                wire.decode_value(value[:cut])
        body = bytes(body_of(reply(payload)))
        for cut in range(len(body)):
            with pytest.raises(wire.WireError):
                wire.unpack_body(memoryview(body)[:cut])
        # As a request: the cut that leaves exactly the args is a whole
        # frame (kwargs are optional); every other one is an error.
        request = bytes(body_of(
            wire.pack_frame(wire.REQUEST, 1, "fs", "op", [payload], {"k": payload})
        ))
        whole = len(body_of(wire.pack_frame(wire.REQUEST, 1, "fs", "op", [payload])))
        for cut in set(range(len(request))) - {whole}:
            with pytest.raises(wire.WireError):
                wire.unpack_body(memoryview(request)[:cut])
        assert wire.unpack_body(request[:whole]).kwargs == {}

    @pytest.mark.parametrize("body", [
        raw_body(b"\x00", target=b"\xff\xfe"),
        raw_body(b"\x06\x00\x00\x00\x02\xc3\x28"),
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
            bytes([0x0B]) + name + wire.encode_value((1, 2, 3, 4, 1, 1)),
            bytes([0x0B]) + name + wire.encode_value([1, 2]),
            bytes([0x0B]) + name + wire.encode_value([1, 2, 3, 4, 1, 1, 0]),
            bytes([0x0B]) + name + wire.encode_value([1, 2, 3, 4, 9, 1]),
            bytes([0x0B]) + name + wire.encode_value(["a", 2, 3, 4, None, 1]),
            bytes([0x0B]) + wire.encode_value("NoSuchStruct")[1:] + b"\x00",
            tagged(0x0C, {"type": "UnixError", "message": 5}),
            tagged(0x0C, {"message": "no type"}),
            tagged(0x0C, None),
        ):
            with pytest.raises(wire.WireError):
                wire.decode_value(data)

    def test_other_versions_are_refused(self):
        v1 = (b"SW\x01\x01\x00\x00\x00\x07\x00\x06client\x00\x06server"
              b"\x00\x04stat\x00")
        for body in (v1, raw_body(b"\x00", version=1), raw_body(b"\x00", version=3)):
            with pytest.raises(wire.WireError, match="unsupported wire version"):
                wire.unpack_body(body)
        with pytest.raises(wire.WireError, match="version 1"):
            wire.unpack_body(v1)

    def test_wrong_shaped_envelopes_raise_only_wire_errors(self):
        args = wire.encode_value([1])
        # Shapes the codec passes on for the server to refuse ...
        assert wire.unpack_body(raw_body(args, wire.encode_value("s"))).kwargs == "s"
        assert wire.unpack_body(raw_body(b"\x00")).payload is None
        # ... and ones that are not a frame at all.
        for body in (
            raw_body(args, wire.encode_value({}), b"\x00"),  # a third value
            raw_body(args, args, kind=wire.REPLY),           # a reply has one
            raw_body(args, b"\xfe"),
            raw_body(),
            raw_body(args)[:11],                             # names cut short
        ):
            with pytest.raises(wire.WireError):
                wire.unpack_body(body)

    def test_nesting_bomb(self):
        with pytest.raises(wire.WireError):
            wire.decode_value(b"\x08\x00\x00\x00\x01" * 100_000)


# --- int runs ---------------------------------------------------------------
# A list of ints is packed and parsed in one pass over one struct; every
# other list takes the per-item loop.  The two must agree byte for byte.

I64_MIN, I64_MAX = -(2**63), 2**63 - 1

run_ints = st.one_of(
    st.sampled_from([I64_MIN - 1, I64_MIN, -1, 0, I64_MAX, I64_MAX + 1]),
    st.integers(I64_MIN, I64_MAX),
    st.integers(-2**80, 2**80),
    st.sampled_from(list(FileType)),
)
run_breakers = st.one_of(
    st.booleans(), st.none(), st.floats(allow_nan=False),
    st.text(max_size=3), st.binary(max_size=3), attributes,
)
int_lists = st.one_of(
    st.lists(run_ints, max_size=70),
    st.lists(st.one_of(run_ints, run_breakers), max_size=70),
)


def per_item(value):
    """A list as the per-item loop writes it: the header, then each item
    encoded on its own."""
    tag = b"\x09" if type(value) is tuple else b"\x08"
    return (tag + len(value).to_bytes(4, "big")
            + b"".join(map(wire.encode_value, value)))


def as_decoded(item):
    """What an item of a list decodes to: a FileType is an int on the wire."""
    return int(item) if type(item) is FileType else item


class TestIntRuns:
    @given(int_lists, st.booleans())
    @settings(deadline=None)
    def test_runs_match_the_per_item_loop(self, items, as_tuple):
        value = tuple(items) if as_tuple else items
        frame = reply(value)
        assert bytes(frame[14:]) == wire.encode_value(value) == per_item(value)
        expected = type(value)(map(as_decoded, value))
        for back in (wire.unpack_body(body_of(frame)).payload,
                     wire.decode_value(bytes(frame[14:]))):
            assert same(back, expected)
            assert all(type(got.ftype) is FileType for got in back
                       if type(got) is FileAttributes)

    @given(st.lists(st.integers(I64_MIN, I64_MAX), min_size=1, max_size=70),
           st.data())
    @settings(deadline=None)
    def test_a_broken_run_raises_only_wire_errors(self, ints, data):
        value = wire.encode_value(ints)
        flipped = bytearray(value)
        at = 5 + 9 * data.draw(st.integers(0, len(ints) - 1))
        flipped[at] = data.draw(st.integers(0, 255).filter(lambda t: t != 3))
        for broken in (bytes(flipped), memoryview(flipped)):
            only_wire_error(wire.decode_value, broken)
            only_wire_error(wire.unpack_body, raw_body(
                bytes(broken), kind=wire.REPLY, target=b"", op=b""
            ))
        body = memoryview(bytes(body_of(reply(ints))))
        for cut in range(len(value)):
            with pytest.raises(wire.WireError):
                wire.decode_value(value[:cut])
            with pytest.raises(wire.WireError):
                wire.unpack_body(body[:10 + cut])


# --- the shape arms against the per-item path ---------------------------------
# ``pack_frame`` and ``unpack_body`` take the shapes calls mostly carry
# in line: a list of ints, a list of strs and ints (in the per-item
# loop), a ``bytes`` value to the end of the frame and, decoding, a
# registered struct of ints; an int reply, drawn too, takes the tables.
# ``per_item_body`` below walks the grammar one tag at a time with no arm
# at all.  A body drawn in an arm's shape, or in one next to it, and
# every cut of it, must decode to the same message both ways, or be
# refused both ways, by ``unpack_body`` with a WireError only.

def _take(buf, pos, size):
    raw = bytes(buf[pos:pos + size])
    if len(raw) != size:
        raise wire.WireError("cut short")
    return raw, pos + size


def _u32(buf, pos):
    raw, pos = _take(buf, pos, 4)
    return int.from_bytes(raw, "big"), pos


def per_item_value(buf, pos):
    """One value: its tag, then its parts, each read on its own."""
    (tag,), pos = _take(buf, pos, 1)
    if tag <= 0x02:
        return (None, True, False)[tag], pos
    if tag in (0x03, 0x05):
        raw, pos = _take(buf, pos, 8)
        return struct.unpack("!q" if tag == 0x03 else "!d", raw)[0], pos
    if tag in (0x04, 0x06, 0x07, 0x0B):
        size, pos = _u32(buf, pos)
        raw, pos = _take(buf, pos, size)
        if tag == 0x04:
            return int.from_bytes(raw, "big", signed=True), pos
        if tag == 0x07:
            return raw, pos
        if tag == 0x06:
            return raw.decode("utf-8"), pos
        if not wire._STRUCTS:
            wire._register_builtin_structs()
        arity, from_values, _ = wire._STRUCTS[raw.decode("utf-8")]
        values, pos = per_item_value(buf, pos)
        if type(values) is not list or len(values) != arity:
            raise wire.WireError("struct fields")
        return from_values(*values), pos
    if tag in (0x08, 0x09, 0x0A):
        count, pos = _u32(buf, pos)
        items = []
        for _ in range(count):
            if tag == 0x0A:
                size, pos = _u32(buf, pos)
                key, pos = _take(buf, pos, size)
                items.append(key.decode("utf-8"))
            item, pos = per_item_value(buf, pos)
            items.append(item)
        if tag == 0x0A:
            return dict(zip(items[::2], items[1::2])), pos
        return (items if tag == 0x08 else tuple(items)), pos
    if tag == 0x0C:
        fields, pos = per_item_value(buf, pos)
        return wire.exception_from_fields(fields), pos
    raise wire.WireError(f"unknown tag {tag}")


def per_item_body(body):
    """The message ``unpack_body`` should return, or None for a body it
    should refuse."""
    try:
        head, pos = _take(body, 0, 10)
        if head[:3] != b"SW\x02":
            return None
        kind, seq, target_len, op_len = struct.unpack("!BIBB", head[3:])
        target, pos = _take(body, pos, target_len)
        op, pos = _take(body, pos, op_len)
        payload, pos = per_item_value(body, pos)
        kwargs = {}
        if pos != len(body) and kind in (wire.REQUEST, wire.COMPOUND):
            kwargs, pos = per_item_value(body, pos)
        if pos != len(body):
            return None
        return wire.Message(kind, seq, target.decode("utf-8"),
                            op.decode("utf-8"), payload, kwargs, 4 + pos)
    except Exception:
        return None


def agrees_with_the_per_item_path(body):
    """``body`` and every cut of it, as bytes and as a writable view
    (what a connection's receive buffer hands the decoder)."""
    for cut in range(len(body) + 1):
        expected = per_item_body(body[:cut])
        for data in (body[:cut], memoryview(bytearray(body[:cut]))):
            if expected is None:
                with pytest.raises(wire.WireError):
                    wire.unpack_body(data)
                continue
            got = wire.unpack_body(data)
            assert got[:4] == expected[:4] and got.nbytes == expected.nbytes
            assert same(got.payload, expected.payload)
            assert same(got.kwargs, expected.kwargs)


i64s = st.integers(I64_MIN, I64_MAX)
#: A payload in each arm's shape, and an int.
arm_payloads = st.one_of(
    st.lists(st.one_of(i64s, st.sampled_from(list(FileType))), max_size=8),
    st.lists(st.one_of(i64s, st.text(max_size=6)), max_size=6),
    st.binary(max_size=40),
    attributes,
    i64s,
)


def _replaced(values, at, item):
    return values[:at] + [item] + values[at + 1:]


#: From a FileAttributes' six field values, the index of one and an item
#: that is not an int: a struct's name and fields next to the arm's shape.
STRUCT_MISSES = (
    lambda values, at, item: ("FileAttributes", _replaced(values, at, item)),
    lambda values, at, item: ("FileAttributes", values[:at]),
    lambda values, at, item: ("FileAttributes", values + [at]),
    lambda values, at, item: ("FileAttributes", _replaced(values, 4, 99)),
    lambda values, at, item: ("NoSuchStruct", values),
)


def encoded_struct(name, values):
    raw = name.encode("utf-8") if isinstance(name, str) else name
    return b"\x0b" + len(raw).to_bytes(4, "big") + raw + wire.encode_value(values)


#: Encoded payloads next to an arm's shape: an int past 64 bits in a run,
#: a struct unregistered, of the wrong arity, with a field that is not an
#: int or out of its range, and invalid utf-8 in a list's str or a
#: struct's name.
near_misses = st.one_of(
    st.lists(st.one_of(i64s, st.sampled_from([I64_MIN - 1, I64_MAX + 1, 2**70])),
             min_size=1, max_size=8).map(wire.encode_value),
    st.builds(
        lambda attrs, miss, at, breaker: encoded_struct(*miss(
            [attrs.size, attrs.atime_us, attrs.mtime_us, attrs.ctime_us,
             int(attrs.ftype), attrs.nlink], at, breaker,
        )),
        attributes, st.sampled_from(STRUCT_MISSES), st.integers(0, 5),
        st.sampled_from([True, None, 1.5, "1", 2**70, I64_MIN - 1]),
    ),
    st.just(b"\x08\x00\x00\x00\x01" + b"\x06\x00\x00\x00\x02\xc3\x28"),
    st.just(encoded_struct(b"\xc3\x28", [1, 2, 3, 4, 1, 1])),
)
#: A frame's names: none (a reply's), a request's, or invalid utf-8.
frame_names = st.sampled_from([(b"", b""), (b"fs", b"pread"), (b"\xff\xfe", b"op")])
#: What may follow the payload: nothing, or a kwargs dict (a request's;
#: after any other kind, trailing bytes).
trailers = st.one_of(
    st.just(b""),
    st.dictionaries(st.text(max_size=4), i64s, max_size=2).map(wire.encode_value),
)


class TestShapeArms:
    @given(arm_payloads, st.sampled_from([wire.REQUEST, wire.REPLY]))
    @settings(deadline=None)
    def test_each_arm_packs_what_the_encoders_write(self, payload, kind):
        names = ("fs", "pread") if kind == wire.REQUEST else ("", "")
        frame = wire.pack_frame(kind, 1, *names, payload)
        assert bytes(frame[14 + sum(map(len, names)):]) == wire.encode_value(payload)
        if type(payload) is list:
            assert wire.encode_value(payload) == per_item(payload)

    @given(st.one_of(arm_payloads.map(wire.encode_value), near_misses),
           frame_names, trailers,
           st.sampled_from([wire.REQUEST, wire.REPLY, wire.COMPOUND]))
    @settings(deadline=None)
    def test_every_arm_and_its_near_misses_decode_as_the_per_item_path(
            self, payload, names, trailer, kind):
        agrees_with_the_per_item_path(
            raw_body(payload, trailer, kind=kind, target=names[0], op=names[1])
        )

    def test_hostile_names_leave_the_name_cache_at_its_bound(self):
        wire._names_of.cache_clear()
        bound = wire._names_of.cache_info().maxsize
        args = wire.encode_value([1, 2, 3])
        for index in range(10_000):
            msg = wire.unpack_body(raw_body(args, target=b"t%d" % index))
            assert msg.target == f"t{index}"
        assert wire._names_of.cache_info().currsize == bound


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
    return bytes(reply(payload, seq))


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

    def test_a_partial_frame_behind_a_consumed_one_moves_to_the_front(self):
        first, second = frame_of("one", 1), frame_of(b"two" * 9, 2)
        frames = wire.FrameBuffer(64)
        assert feed(frames, first + second[:10]) == [first[4:]]
        # The ten bytes of the second frame now start the buffer, so the
        # rest of it has the whole remainder to land in.
        assert frames.pending() == 10 and len(frames.writable()) == 64 - 10
        assert feed(frames, second[10:]) == [second[4:]]

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

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="reads resident set size from /proc")
    def test_an_announced_frame_is_not_resident_before_it_arrives(self):
        # Four bytes announce the largest legal body.  Until that body
        # arrives, the one-off buffer for it may cost address space but
        # not memory, or every stalled peer pins MAX_FRAME bytes.
        def resident():
            with open("/proc/self/statm") as statm:
                return int(statm.read().split()[1]) * mmap.PAGESIZE

        frames = wire.FrameBuffer(64)
        before = resident()
        assert feed(frames, wire.MAX_FRAME.to_bytes(4, "big")) == []
        assert len(frames.writable()) == wire.MAX_FRAME
        assert resident() - before < 1024 * 1024


# --- FrameBuffer.receive against the parts it merges --------------------------
# ``receive`` stands for ``writable`` + ``received`` + ``next_frame`` on
# the good path; a transport finishes a frame it leaves incomplete with
# ``_rest_of_frame``.  Fed the same bytes, cut at the same offsets, the
# two must hand out the same bodies in the same order.

class Chunks:
    """A fake ``recv_into``: delivers ``stream`` one chunk (the bytes
    between two cuts) at a time, at most as much as the buffer takes,
    then 0 for a closed peer.  ``settimeout`` lets it stand in for the
    socket ``_rest_of_frame`` reads from."""

    def __init__(self, stream, cuts):
        edges = sorted({0, len(stream)}
                       | {cut for cut in cuts if 0 < cut < len(stream)})
        view = memoryview(stream)
        self._chunks = [view[a:b] for a, b in zip(edges, edges[1:])]

    def recv_into(self, buf):
        if not self._chunks:
            return 0
        chunk = self._chunks[0]
        count = min(len(buf), len(chunk))
        buf[:count] = chunk[:count]
        if count < len(chunk):
            self._chunks[0] = chunk[count:]
        else:
            self._chunks.pop(0)
        return count

    def settimeout(self, value):
        pass


def by_parts(frames, sock, bodies):
    """The loop ``receive`` replaces."""
    while True:
        nbytes = sock.recv_into(frames.writable())
        if not nbytes:
            return
        frames.received(nbytes)
        while (body := frames.next_frame()) is not None:
            bodies.append(bytes(body))


def by_receive(frames, sock, bodies):
    """The loop the transport runs."""
    while True:
        body = frames.receive(sock.recv_into)
        if body is None:
            if not frames.pending():
                return  # the peer closed between frames
            body = transport._rest_of_frame(sock, frames, float("inf"))
        bodies.append(bytes(body))


def outcome(loop, size, stream, cuts):
    """The bodies ``loop`` yields, and the type of what it raised."""
    bodies = []
    try:
        loop(wire.FrameBuffer(size), Chunks(stream, cuts), bodies)
    except Exception as exc:  # compared, then required to be a WireError
        return bodies, type(exc)
    return bodies, None


def filling(size, seq=1):
    """A frame of exactly ``size`` bytes."""
    frame = frame_of(b"", seq)
    return frame_of(b"f" * (size - len(frame)), seq)


OVERSIZED = (wire.MAX_FRAME + 1).to_bytes(4, "big") + b"SW\x02"


class TestReceiveMatchesTheParts:
    @given(
        size=st.sampled_from([32, 64, 200, wire.RECV_BUFFER]),
        payloads=st.lists(st.integers(0, 300), min_size=1, max_size=5),
        cuts=st.lists(st.integers(0, 2**21), max_size=8),
        # (frame, offset): a cut that many bytes into one frame, which
        # puts cuts at and just after length prefixes far more often.
        near=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)),
                      max_size=4),
        oversized=st.booleans(),
    )
    @example(size=wire.RECV_BUFFER, payloads=[], cuts=[4], near=[],
             oversized=False)
    @example(size=wire.RECV_BUFFER, payloads=[-wire.RECV_BUFFER, 5],
             cuts=[], near=[(1, 4)], oversized=False)
    @example(size=wire.RECV_BUFFER, payloads=[-wire.RECV_BUFFER - 1, 0],
             cuts=[], near=[(0, 4)], oversized=False)
    @example(size=64, payloads=[3], cuts=[], near=[(1, 2)], oversized=True)
    @settings(deadline=None)
    def test_same_bodies_in_the_same_order(self, size, payloads, cuts, near,
                                           oversized):
        # A negative payload stands for a frame of exactly -payload bytes.
        stream = [filling(-n, seq) if n < 0 else frame_of(b"p" * n, seq)
                  for seq, n in enumerate(payloads or [0])]
        starts = [0]
        for frame in stream:
            starts.append(starts[-1] + len(frame))
        stream = b"".join(stream) + (OVERSIZED if oversized else b"")
        cuts = [c % (len(stream) + 1) for c in cuts]
        cuts += [starts[i % len(starts)] + k for i, k in near]
        parts = outcome(by_parts, size, stream, cuts)
        merged = outcome(by_receive, size, stream, cuts)
        assert merged == parts
        assert merged[1] is (wire.WireError if oversized else None)
        assert len(merged[0]) == len(payloads or [0])


class TestCopyBudget:
    def test_one_mib_payload_peaks_below_2_5x(self):
        payload = bytes(range(256)) * 4096
        tracemalloc.start()
        try:
            frame = reply(payload)
            msg = wire.unpack_body(body_of(frame))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert msg.payload == payload
        assert peak < 2.5 * len(payload)
