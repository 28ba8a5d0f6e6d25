"""Wire format for the real socket transport.

The simulated network (:mod:`repro.ipc.network`) moves *costs*, not
bytes; :class:`~repro.ipc.transport.SocketTransport` moves actual bytes
between OS processes, and this module defines the bytes it moves.

Framing is length-prefixed binary, in the spirit of ONC RPC record
marking or the Lustre LNet headers.  This is format **v2**; there is one
version and no negotiation — both ends ship together, and a frame of any
other version is a :class:`WireError` and a closed connection.  Every
message on a connection is ::

    u32   body length (big-endian)
    body:
      2s  magic  b"SW"
      u8  protocol version (2)
      u8  kind   (REQUEST / REPLY / ERROR / COMPOUND / COMPOUND_REPLY)
      u32 sequence number (echoed by the reply, which it alone matches)
      u8  len(target), u8 len(op)   both 0 unless the kind is REQUEST
      target, op                    utf-8, at most 255 bytes each
      REQUEST, COMPOUND:  the args as one list value, then the kwargs as
                          one dict value only when there are any
      other kinds:        one value, the result or the exception

A COMPOUND's args are one ``[target, op, args, kwargs]`` per call, its
kwargs ``{"fail_fast": bool}``, its reply a list of ``(status, value)``.
Node names are not sent: they are constant per connection.

Payload values use a small tag-byte binary encoding covering exactly the
types Spring operations carry across machines: None, bools, ints,
floats, strings, bytes, lists/tuples, string-keyed dicts, registered
value structs (e.g. :class:`~repro.fs.attributes.FileAttributes`), and
exceptions.  Anything else is a :class:`WireEncodeError` — the wire is a
typed contract, not a pickle: unpickling attacker-controlled bytes would
execute code, while this decoder only ever builds plain data.

Exceptions cross the wire by *registered class name* (every
:class:`~repro.errors.SpringError` subclass plus a whitelist of
builtins) and are re-raised client-side as the same type; unknown server
exceptions decode as :class:`RemoteError` carrying the original class
name and message.

Both directions are stream-free: :func:`pack_frame` builds a whole frame
in one bytearray; :func:`unpack_body` decodes out of a
:class:`FrameBuffer` view of the receive buffer, copies what it keeps,
and raises only :class:`WireError` whatever bytes arrive.  A connection
takes each frame with one :meth:`FrameBuffer.receive` call, which makes
the ``recv_into`` itself and returns the body of a read that brought one
whole frame without storing any state.

The payload shapes the served workloads carry are read and written
inline, by an arm of :func:`unpack_body` and :func:`pack_frame`, and any
other payload through the tables of per-tag decoders and per-type
encoders: a list (an int run in one pass, any other list straight to
the per-item loop, which takes ints and strs inline, and ``bytes`` too
when decoding), a ``bytes`` value running to the end of the frame, and
on decode a registered struct whose fields are an int run (its encoder
writes them as one).  An int run is a list whose items are all ints (a
``FileType`` counts, a ``bool`` does not), packed, and parsed when
every ninth byte is the int tag, by C-level iteration over one
``struct``.  An arm writes and reads the bytes the per-item path does.
A request's target and op are decoded once per pair, through a cache
bounded like the pack side's.  A decoded frame is a :data:`Message`
tuple, so building one runs no Python code.
"""

from __future__ import annotations

import builtins
import collections
import functools
import itertools
import mmap
import struct
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro import errors as _errors
from repro.errors import InvocationError, SpringError

MAGIC = b"SW"
VERSION = 2

#: Frame kinds.
REQUEST = 1
REPLY = 2
ERROR = 3
COMPOUND = 4
COMPOUND_REPLY = 5

#: Upper bound on one frame body; a peer announcing more is treated as
#: corrupt rather than trusted to allocate gigabytes.
MAX_FRAME = 64 * 1024 * 1024

#: Size of the receive buffer a connection reuses for every frame (a
#: 256 KiB payload and its headers fit); larger frames get a one-off.
RECV_BUFFER = 512 * 1024

_MAGIC_VERSION = MAGIC + bytes([VERSION])
_LEN = _U32 = struct.Struct("!I")  # the frame length; a length or count
_HEAD = struct.Struct("!3sBIBB")  # magic + version, kind, seq, name lengths
_FRAME_HEAD = struct.Struct("!I3sBI")  # _LEN, then _HEAD up to the lengths
_I64 = struct.Struct("!q")
_F64 = struct.Struct("!d")
_TAG_U32 = struct.Struct("!BI")  # tag byte, then a length or count
_TAG_I64 = struct.Struct("!Bq")
_TAG_F64 = struct.Struct("!Bd")
# Bound once: each runs once or twice per frame.  _LEN is 4 bytes and
# _HEAD 10, the literal offsets below.
_unpack_len, _unpack_head = _LEN.unpack_from, _HEAD.unpack_from
_pack_frame_head = _FRAME_HEAD.pack_into
_pack_tag_u32, _pack_int, _iter_tag_i64 = (  # an int: _pack_int(_T_INT, i)
    _TAG_U32.pack, _TAG_I64.pack, _TAG_I64.iter_unpack)

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1

# Value tags.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_BIGINT = 0x04
_T_FLOAT = 0x05
_T_STR = 0x06
_T_BYTES = 0x07
_T_LIST = 0x08
_T_TUPLE = 0x09
_T_DICT = 0x0A
_T_STRUCT = 0x0B
_T_EXC = 0x0C


class WireError(SpringError):
    """The byte stream violated the framing or encoding contract."""


class WireEncodeError(WireError):
    """A value outside the wire type system was asked to cross it."""


class RemoteError(InvocationError):
    """A server-side exception of a type this process doesn't know.

    Carries the remote class name so callers can still dispatch on it.
    """

    def __init__(self, remote_type: str, message: str) -> None:
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_message = message


# --- value structs ----------------------------------------------------------
# Registered value types cross the wire as a name and their field values
# in registered order, and are rebuilt by their registered constructor —
# the typed alternative to pickle.  name -> (field count, constructor,
# the list header of its fields):

_STRUCTS: Dict[str, Tuple[int, Callable[..., Any], bytes]] = {}


def register_struct(name: str, cls: type, fields: Tuple[str, ...],
                    from_values: Callable[..., Any]) -> None:
    """Teach the wire a value type (idempotent per name): ``fields`` are
    the attributes sent, in order; ``from_values(*values)`` rebuilds."""
    raw = name.encode("utf-8")
    # The list header its fields follow: unpack_body's struct arm checks
    # it before it reads them as one int run.
    run_head = _TAG_U32.pack(_T_LIST, len(fields))
    head = _TAG_U32.pack(_T_STRUCT, len(raw)) + raw + run_head
    values_of = attrgetter(*fields)

    def encode_struct(value: Any, buf: bytearray) -> None:
        _encode_list(values_of(value), buf, head)

    _STRUCTS[name] = (len(fields), from_values, run_head)
    _ENCODERS[cls] = encode_struct


def _register_builtin_structs() -> None:
    from repro.fs.attributes import FileAttributes
    from repro.storage.inode import FileType

    _ENCODERS[FileType] = _encode_int  # an IntEnum packs as its value
    _INT_TYPES.add(FileType)
    # A dict lookup, not FileType(value): an unknown value is a KeyError.
    file_types = {ftype.value: ftype for ftype in FileType}
    register_struct(
        "FileAttributes", FileAttributes,
        ("size", "atime_us", "mtime_us", "ctime_us", "ftype", "nlink"),
        lambda size, atime, mtime, ctime, ftype, nlink: FileAttributes(
            size, atime, mtime, ctime, file_types[ftype], nlink
        ),
    )


# --- exception registry -----------------------------------------------------

_SAFE_BUILTIN_EXCS = (
    "ValueError",
    "TypeError",
    "KeyError",
    "IndexError",
    "RuntimeError",
    "NotImplementedError",
    "ArithmeticError",
    "ZeroDivisionError",
)


@functools.lru_cache(maxsize=None)
def _exc_registry() -> Dict[str, Type[BaseException]]:
    registry: Dict[str, Type[BaseException]] = {}
    for name in dir(_errors):
        obj = getattr(_errors, name)
        if isinstance(obj, type) and issubclass(obj, SpringError):
            registry[name] = obj
    # NetworkPartitionError lives in repro.ipc.network, not repro.errors.
    from repro.ipc.network import NetworkPartitionError

    registry["NetworkPartitionError"] = NetworkPartitionError
    for name in _SAFE_BUILTIN_EXCS:
        registry[name] = getattr(builtins, name)
    return registry


def exception_to_fields(exc: BaseException) -> dict:
    fields = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, _errors.UnixError):
        fields["code"] = exc.code
    return fields


def exception_from_fields(fields: dict) -> BaseException:
    name = fields["type"]
    message = fields["message"]
    cls = _exc_registry().get(name)
    if cls is None:
        return RemoteError(name, message)
    if cls is _errors.UnixError:
        code = fields.get("code", "EIO")
        # UnixError renders as "[CODE] message"; strip the prefix its
        # __init__ will re-add so the round trip is stable.
        prefix = f"[{code}] "
        if message.startswith(prefix):
            message = message[len(prefix):]
        elif message == code:
            message = ""
        return _errors.UnixError(code, message)
    if cls is KeyError:
        # str(KeyError("x")) is "'x'"; rebuild from the repr'd key so
        # a re-encode round-trips instead of growing quotes.
        return KeyError(message.strip("'"))
    return cls(message)


# --- value encoding ---------------------------------------------------------
# Encoders append to a bytearray and are picked by exact ``type(value)``
# from ``_ENCODERS``; what the table lacks (bytes subclasses, exceptions,
# structs not yet registered) takes ``_encode_other``.

def encode_value(value: Any) -> bytes:
    """Encode one payload value into wire bytes."""
    buf = bytearray()
    _ENCODERS.get(type(value), _encode_other)(value, buf)
    return bytes(buf)


def _encode_int(value: int, buf: bytearray) -> None:
    if _I64_MIN <= value <= _I64_MAX:
        buf += _TAG_I64.pack(_T_INT, value)
    else:
        raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
        buf += _TAG_U32.pack(_T_BIGINT, len(raw)) + raw


def _encode_bytes(value, buf: bytearray) -> None:
    buf += _TAG_U32.pack(_T_BYTES, len(value))
    buf += value


def _encode_view(value: memoryview, buf: bytearray) -> None:
    # Only a flat byte view can be appended (and measured with len()).
    flat = value.cast("B") if value.c_contiguous else value.tobytes()
    _encode_bytes(flat, buf)


def _encode_list(value, buf: bytearray, head: bytes) -> None:
    """``head`` (a list's or a tuple's, or a struct's name and the
    header of its fields), then the items of ``value``: in one pass when
    they are an int run (bool is not an int here), else by the per-item
    loop."""
    if _INT_TYPES.issuperset(map(type, value)):
        try:
            buf += head + b"".join(map(_pack_int, _INT_TAGS, value))
            return
        except struct.error:
            pass  # an int past 64 bits: the loop sends it as _T_BIGINT
    buf += head
    _encode_items(value, buf)


def _encode_items(value, buf: bytearray) -> None:
    """The per-item loop: an int or a str inline, any other item through
    its encoder."""
    for item in value:
        cls = type(item)
        if cls is int and _I64_MIN <= item <= _I64_MAX:
            buf += _pack_int(_T_INT, item)
        elif cls is str:
            raw = item.encode("utf-8")
            buf += _pack_tag_u32(_T_STR, len(raw)) + raw
        else:
            _ENCODERS.get(cls, _encode_other)(item, buf)


def _encode_dict(value: dict, buf: bytearray) -> None:
    buf += _TAG_U32.pack(_T_DICT, len(value))
    for key, item in value.items():
        if type(key) is not str:
            raise WireEncodeError(
                f"dict keys must be str, got {type(key).__name__}"
            )
        raw = key.encode("utf-8")
        buf += _U32.pack(len(raw))
        buf += raw
        _ENCODERS.get(type(item), _encode_other)(item, buf)


def _encode_other(value: Any, buf: bytearray) -> None:
    if isinstance(value, (bytes, bytearray)):
        _encode_bytes(value, buf)
    elif isinstance(value, BaseException):
        buf.append(_T_EXC)
        _encode_dict(exception_to_fields(value), buf)
    elif not _STRUCTS:
        _register_builtin_structs()
        _ENCODERS.get(type(value), _encode_other)(value, buf)
    else:
        raise WireEncodeError(f"{type(value).__name__} cannot cross the wire")


_ENCODERS: Dict[type, Callable[[Any, bytearray], None]] = {
    type(None): lambda value, buf: buf.append(_T_NONE),
    bool: lambda value, buf: buf.append(_T_TRUE if value else _T_FALSE),
    int: _encode_int,
    float: lambda value, buf: buf.extend(_TAG_F64.pack(_T_FLOAT, value)),
    str: lambda value, buf: _encode_items((value,), buf),
    bytes: _encode_bytes,
    bytearray: _encode_bytes,
    memoryview: _encode_view,
    list: lambda v, buf: _encode_list(v, buf, _pack_tag_u32(_T_LIST, len(v))),
    tuple: lambda v, buf: _encode_list(v, buf, _pack_tag_u32(_T_TUPLE, len(v))),
    dict: _encode_dict,
}

#: The item types of a list that is an int run (FileType joins them when
#: the built-in structs register), and the tag each of its items carries.
_INT_TYPES = {int}
_INT_TAGS = itertools.repeat(_T_INT)


# --- value decoding ---------------------------------------------------------
# Decoders are ``(buf, pos past the tag) -> (value, pos)`` over bytes or
# a memoryview, indexed by tag.  No decoded value aliases ``buf``.

#: What malformed input raises below: a truncated fixed-width field or
#: tag, invalid utf-8, struct/exception fields of the wrong shape, and
#: nesting deeper than the stack.  All become :class:`WireError`.
_MALFORMED = (struct.error, IndexError, ValueError, KeyError, TypeError,
              AttributeError, RecursionError)


def decode_value(data) -> Any:
    try:
        value, pos = _DECODERS[data[0]](data, 1)
    except _MALFORMED as exc:
        raise WireError(f"malformed value: {exc!r}") from exc
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes in value")
    return value


def _decode_unknown(buf, pos: int):
    raise WireError(f"unknown value tag 0x{buf[pos - 1]:02x}")


# A length-prefixed value ends at ``end``.  A slice, unlike
# ``unpack_from``, truncates silently, so each checks before it slices.

def _sized(convert):
    """The decoder of a length-prefixed value: its bytes, ``convert``ed."""
    def decode(buf, pos: int):
        end = pos + 4 + _U32.unpack_from(buf, pos)[0]
        if end > len(buf):
            raise WireError("truncated frame body")
        return convert(buf[pos + 4:end]), end
    return decode


_decode_bigint = _sized(functools.partial(int.from_bytes, byteorder="big", signed=True))
_str = functools.partial(str, encoding="utf-8")
_decode_str = _sized(_str)
_decode_bytes = _sized(bytes)


_second = itemgetter(1)


def _decode_items(buf, pos: int, count: int):
    """The per-item loop over ``count`` items from ``pos``: an int, a str
    or a ``bytes`` inline, any other item through its decoder.  (A list
    that is the payload of a frame is an int run more often than not:
    :func:`unpack_body` reads that in one pass first.)"""
    items = []
    for _ in range(count):
        tag = buf[pos]
        if tag == _T_INT:
            items.append(_I64.unpack_from(buf, pos + 1)[0])
            pos += 9
        elif tag == _T_STR or tag == _T_BYTES:
            start = pos + 5
            pos = start + _unpack_len(buf, pos + 1)[0]
            if pos > len(buf):
                raise WireError("truncated frame body")
            items.append((_str if tag == _T_STR else bytes)(buf[start:pos]))
        else:
            item, pos = _DECODERS[tag](buf, pos + 1)
            items.append(item)
    return items, pos


def _decode_list(buf, pos: int):
    return _decode_items(buf, pos + 4, _U32.unpack_from(buf, pos)[0])


def _decode_tuple(buf, pos: int):
    items, pos = _decode_list(buf, pos)
    return tuple(items), pos


def _decode_dict(buf, pos: int):
    fields = {}
    count = _U32.unpack_from(buf, pos)[0]
    pos += 4
    for _ in range(count):
        key, pos = _decode_str(buf, pos)
        item, pos = _DECODERS[buf[pos]](buf, pos + 1)
        fields[key] = item
    return fields, pos


def _decode_struct(buf, pos: int):
    name, pos = _decode_str(buf, pos)
    if not _STRUCTS:
        _register_builtin_structs()
    if name not in _STRUCTS:
        raise WireError(f"unknown wire struct {name!r}")
    arity, from_values, _ = _STRUCTS[name]
    values, pos = _DECODERS[buf[pos]](buf, pos + 1)
    if type(values) is not list or len(values) != arity:
        raise WireError(f"struct {name!r} takes a list of {arity} fields")
    return from_values(*values), pos


def _decode_exception(buf, pos: int):
    fields, pos = _DECODERS[buf[pos]](buf, pos + 1)
    return exception_from_fields(fields), pos


_DECODERS: List[Callable[[Any, int], Tuple[Any, int]]] = [_decode_unknown] * 256
_DECODERS[_T_NONE] = lambda buf, pos: (None, pos)
_DECODERS[_T_TRUE] = lambda buf, pos: (True, pos)
_DECODERS[_T_FALSE] = lambda buf, pos: (False, pos)
_DECODERS[_T_INT] = lambda buf, pos: (_I64.unpack_from(buf, pos)[0], pos + 8)
_DECODERS[_T_BIGINT] = _decode_bigint
_DECODERS[_T_FLOAT] = lambda buf, pos: (_F64.unpack_from(buf, pos)[0], pos + 8)
_DECODERS[_T_STR] = _decode_str
_DECODERS[_T_BYTES] = _decode_bytes
_DECODERS[_T_LIST] = _decode_list
_DECODERS[_T_TUPLE] = _decode_tuple
_DECODERS[_T_DICT] = _decode_dict
_DECODERS[_T_STRUCT] = _decode_struct
_DECODERS[_T_EXC] = _decode_exception


# --- framing ----------------------------------------------------------------

#: One decoded frame: ``payload`` is a request's args or a reply's value;
#: ``nbytes`` its size on the wire, length prefix included.  A tuple, so
#: building one runs no Python code.
Message = collections.namedtuple(
    "Message", "kind seq target op payload kwargs nbytes"
)
# tuple.__new__ directly: a namedtuple's own __new__ is Python code.
_message = functools.partial(tuple.__new__, Message)


@functools.lru_cache(maxsize=4096)
def _names(target: str, op: str) -> bytes:
    """Room for the fixed header, both length bytes, then both names:
    encoded once per pair."""
    raws = target.encode("utf-8"), op.encode("utf-8")
    if max(map(len, raws)) > 255:
        raise WireEncodeError("target and op names are at most 255 bytes")
    return bytes(_FRAME_HEAD.size) + bytes(map(len, raws)) + b"".join(raws)


@functools.lru_cache(maxsize=1024)
def _names_of(raw: bytes) -> Tuple[str, str]:
    """``(target, op)`` from both length bytes and both names: decoded
    once per pair.  Bounded, because the peer picks the pairs."""
    mid = 2 + raw[0]
    return str(raw[2:mid], "utf-8"), str(raw[mid:], "utf-8")


def pack_frame(kind: int, seq: int, target: str, op: str, payload: Any,
               kwargs: Optional[dict] = None) -> bytearray:
    """One whole frame in one buffer; the header is patched in last.
    A reply has no names (``""``) and no kwargs.  A list (an int run in
    one pass, any other straight to the per-item loop) and a ``bytes``
    value are written inline, any other payload by its encoder."""
    frame = bytearray(_names(target, op))
    cls = type(payload)
    if cls is list:
        head = _pack_tag_u32(_T_LIST, len(payload))
        if _INT_TYPES.issuperset(map(type, payload)):
            try:
                frame += head + b"".join(map(_pack_int, _INT_TAGS, payload))
            except struct.error:  # an int past 64 bits
                frame += head
                _encode_items(payload, frame)
        else:
            frame += head
            _encode_items(payload, frame)
    elif cls is bytes:
        frame += _pack_tag_u32(_T_BYTES, len(payload))
        frame += payload
    else:
        _ENCODERS.get(cls, _encode_other)(payload, frame)
    if kwargs:
        _encode_dict(kwargs, frame)
    length = len(frame) - 4
    if length > MAX_FRAME:
        raise WireEncodeError(f"frame body {length} exceeds MAX_FRAME")
    _pack_frame_head(frame, 0, length, _MAGIC_VERSION, kind, seq)
    return frame


def unpack_body(body) -> Message:
    """Decode one frame body; the message keeps no reference to it.  A
    list (an int run in one pass, any other straight to the per-item
    loop), a ``bytes`` value and a registered all-int struct are read
    inline, any other payload by its decoder."""
    try:
        # A body shorter than the header is a struct.error here.
        head, kind, seq, target_len, op_len = _unpack_head(body)
        if head != _MAGIC_VERSION:
            if head[:2] != MAGIC:
                raise WireError(f"bad magic {head[:2]!r}")
            raise WireError(f"unsupported wire version {head[2]}")
        end = len(body)
        if target_len or op_len:
            pos = 10 + target_len + op_len
            target, op = _names_of(bytes(body[8:pos]))
        else:
            pos = 10
            target = op = ""
        # Names cut short leave no tag byte here: an IndexError.
        tag = body[pos]
        if tag == _T_LIST:
            count, pos = _unpack_len(body, pos + 1)[0], pos + 5
            stop = pos + 9 * count
            # Every ninth byte the _T_INT tag (0x03): an int run, read in
            # one pass.  The bound first: a hostile count must not size
            # the comparand.
            if stop <= end and body[pos:stop:9] == b"\x03" * count:
                payload = list(map(_second, _iter_tag_i64(body[pos:stop])))
                pos = stop
            else:
                payload, pos = _decode_items(body, pos, count)
        elif tag == _T_BYTES and _unpack_len(body, pos + 1)[0] == end - pos - 5:
            payload = bytes(body[pos + 5:])  # to the end of the frame
            pos = end
        elif tag == _T_STRUCT:
            # Registered, with every field an int: its name, the header of
            # its fields' list as _STRUCTS holds it, then an int run.
            start = pos + 5 + _unpack_len(body, pos + 1)[0]
            arity, from_values, list_head = _STRUCTS.get(
                str(body[pos + 5:start], "utf-8"), (0, None, None))
            run, stop = start + 5, start + 5 + 9 * arity
            if body[start:run] == list_head and body[run:stop:9] == b"\x03" * arity:
                payload = from_values(*map(_second, _iter_tag_i64(body[run:stop])))
                pos = stop
            else:  # any other struct, or none registered yet
                payload, pos = _decode_struct(body, pos + 1)
        else:
            payload, pos = _DECODERS[tag](body, pos + 1)
        if pos != end:
            if kind in (REQUEST, COMPOUND):
                kwargs, pos = _DECODERS[body[pos]](body, pos + 1)
                if pos == end:
                    return _message((kind, seq, target, op, payload, kwargs, 4 + end))
            raise WireError(f"{end - pos} trailing bytes in frame")
    except _MALFORMED as exc:
        raise WireError(f"malformed frame body: {exc!r}") from exc
    return _message((kind, seq, target, op, payload, {}, 4 + end))


class FrameBuffer:
    """Receive side of the framing, for both ends of a connection.

    The owner calls :meth:`receive` with its socket's ``recv_into``: one
    call per frame when, as from a closed-loop peer, every read brings
    exactly one whole frame.  When it returns None the rest of a frame
    is outstanding (:meth:`pending` is not 0) or the peer has closed
    (it is 0); the owner then receives into :meth:`writable`, reports
    the count to :meth:`received` and asks :meth:`next_frame` until a
    body comes.  A body is a view of the one reusable buffer, valid
    until the next call on this object.  A frame that does not fit gets
    a one-off map of exactly its size, after the ``MAX_FRAME`` check.
    """

    def __init__(self, size: int = RECV_BUFFER) -> None:
        # An anonymous map, not a bytearray: its pages become resident
        # only as far as frames reach into it.
        self._home = memoryview(mmap.mmap(-1, size))
        self.clear()

    def clear(self) -> None:
        self._view = self._home
        self._start = self._end = 0

    def receive(self, recv_into) -> Optional[memoryview]:
        """The next frame's body, or None (see the class doc).  Bytes
        already buffered are parsed without receiving; otherwise one
        ``recv_into`` fills the home buffer from its start."""
        if self._end:
            return self.next_frame()
        view = self._home  # nothing buffered: the whole of it is writable
        nbytes = recv_into(view)
        # Exactly one whole frame.  Under four bytes, the stale length
        # read cannot equal the negative body size.
        if _unpack_len(view)[0] == nbytes - 4:
            return view[4:nbytes]
        self._end = nbytes
        return self.next_frame() if nbytes else None

    def writable(self) -> memoryview:
        """Where the next ``recv_into`` goes; never empty."""
        return self._view[self._end:]

    def received(self, nbytes: int) -> None:
        self._end += nbytes

    def pending(self) -> int:
        """Bytes received that :meth:`next_frame` has not yet returned."""
        return self._end - self._start

    def next_frame(self) -> Optional[memoryview]:
        view, start, end = self._view, self._start, self._end
        have = end - start
        need = 4
        if have >= need:
            (length,) = _unpack_len(view, start)
            if length > MAX_FRAME:
                raise WireError(f"frame body {length} exceeds MAX_FRAME")
            need += length
            if have >= need:
                if have == need:
                    self.clear()
                else:
                    self._start = start + need
                return view[start + 4:start + need]
        # Incomplete: make sure the rest of it has somewhere to land.
        if start:
            view[:have] = view[start:end]
            self._start, self._end = 0, have
        if need > len(view):
            # A map too: announcing a frame reserves address space, and
            # only the bytes that arrive become resident.
            self._view = memoryview(mmap.mmap(-1, need))
            self._view[:have] = view[:have]
        return None
