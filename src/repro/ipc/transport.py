"""The socket RPC pair: a real TCP message plane beside the simulated one.

The paper's network proxies let the same invocation cross a real machine
boundary.  Inside one process that crossing is *simulated*:
``@operation`` charges :meth:`repro.ipc.network.Network.transfer`
(virtual-clock costs, no bytes).  This module is the other plane, the
one ``repro.serve`` uses to split a Spring stack across OS processes —
the two do not plug into one another:

* :class:`ExportRegistry` — the objects a server process exposes by name
  (``node.expose``); resolves and executes one op.

* :class:`SocketServer` / :class:`SocketTransport` — a TCP pair
  speaking the :mod:`repro.ipc.wire` framing over blocking sockets at
  both ends: the server answers a request on the thread that received
  it (one thread per connection, one domain lock around execution), the
  client blocks for the reply; neither puts an event loop, a stream or
  a task between the socket and the codec.  A plain request costs the
  server's connection loop one ``ExportRegistry.call`` and one
  ``wire.pack_frame`` beside its counters; a compound, a ping, a
  malformed call and a crash armed by ``fail_next_reply`` take
  :meth:`SocketServer._reply_for`.  The client process binds
  :class:`RemoteStub`\\ s and invokes them.  Socket
  failures map onto the same transient-error taxonomy the simulated
  fault plane uses — connect failures/timeouts become
  :class:`~repro.ipc.network.NetworkPartitionError`, a connection that
  dies before the reply becomes
  :class:`~repro.errors.NodeCrashedError`, and a reply timeout becomes
  :class:`~repro.errors.MessageDroppedError` — which is exactly what
  lets :class:`~repro.ipc.retry.RetryPolicy` (send-only retries) and
  :class:`~repro.ipc.compound.CompoundInvocation` (one frame per batch)
  work unchanged on both planes.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import socket
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import (
    InvocationError,
    MessageDroppedError,
    NameNotFoundError,
    NodeCrashedError,
    TransientNetworkError,
)
from repro.ipc import wire
from repro.ipc.network import NetworkPartitionError
from repro.ipc.wire import COMPOUND, COMPOUND_REPLY, ERROR, REPLY, REQUEST

#: Reserved op :meth:`SocketTransport.send` uses: the server replies
#: None without touching any export — a pure round trip carrying the
#: request's payload bytes.
PING_OP = "*ping*"

#: Compound outcome statuses on the transport surface.
OK, ERRORED, SKIPPED = "ok", "error", "skipped"

#: How long either end waits for the rest of a frame whose first bytes
#: have arrived — over the whole frame, not per ``recv``.  The client's
#: default reply timeout; on the server, what a stalled peer gets.
FRAME_TIMEOUT_S = 30.0

_MALFORMED_CALL = "malformed call: args must be a list and kwargs a dict"

_log = logging.getLogger(__name__)


def _rest_of_frame(sock: socket.socket, frames: wire.FrameBuffer,
                   deadline: float) -> memoryview:
    """The body of the frame whose first bytes are in ``frames``, once
    the rest of it has arrived.  The deadline spans the frame, not each
    ``recv``, so a peer that trickles bytes still times out; the socket
    is left with what remained of it as its timeout."""
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise socket.timeout()
        sock.settimeout(remaining)
        nbytes = sock.recv_into(frames.writable())
        if not nbytes:
            raise ConnectionError("closed mid-frame")
        frames.received(nbytes)
        body = frames.next_frame()
        if body is not None:
            return body


class ExportRegistry:
    """Named objects reachable through a :class:`SocketServer`: the
    server-side half of the operation surface, which resolves an op by
    export and method name and executes it.  Only public methods (no
    leading underscore) are invokable.
    """

    def __init__(self, exports: Optional[Dict[str, Any]] = None) -> None:
        self.exports: Dict[str, Any] = exports if exports is not None else {}

    def expose(self, name: str, obj: Any) -> None:
        self.exports[name] = obj

    def call(self, target: str, op: str, args: Sequence, kwargs: dict) -> Any:
        try:
            obj = self.exports[target]
        except KeyError:
            raise NameNotFoundError(f"no export named {target!r}")
        if op.startswith(("_", "*")):
            raise InvocationError(f"operation name {op!r} is not invokable")
        method = getattr(obj, op, None)
        if not callable(method):
            raise InvocationError(
                f"export {target!r} has no operation {op!r}"
            )
        return method(*args, **kwargs)


class SocketServer:
    """TCP server hosting an export registry: a request is served on
    the thread that received it.

    One client connection is one framed request/reply stream and one
    blocking daemon thread (:meth:`_serve`).  Every thread executes
    under the one **domain lock**, held from the decode of a request to
    its encoded reply: requests from all connections run one at a time,
    each to completion, in the order they took the lock (a Spring
    server domain's single-threaded determinism), and only the socket
    I/O around them overlaps — a peer stalled mid-frame, or slow to
    drain its reply (``sendall`` blocking *is* the back-pressure), holds
    up its own thread alone.  A frame begun but not finished within
    :data:`FRAME_TIMEOUT_S` closes that connection.

    asyncio is the lifecycle face only (``await start()``, ``await
    wait_closed()``, accepting on the loop); no request byte passes
    through it.  ``fail_next_reply`` is the socket analogue of the
    simulated fault plane's crash injection: the op executes, then the
    connection drops before the reply — the client observes a mid-invoke
    server crash.
    """

    def __init__(
        self,
        exports: Optional[Dict[str, Any]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = ExportRegistry(exports)
        self.host = host
        self.port = port
        self.frames_in = 0
        self.frames_out = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.ops_served = 0
        self.compound_batches = 0
        self._fail_next_replies = 0
        #: The kind :meth:`_serve` answers itself; None while a crash is
        #: armed.
        self._plain: Optional[int] = REQUEST
        self._shutdown_after_reply = False
        self._domain = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closed: Optional[asyncio.Event] = None
        self._connections: Dict[socket.socket, threading.Thread] = {}

    # --- fault injection / shutdown ------------------------------------
    def fail_next_reply(self, count: int = 1) -> None:
        """Drop the connection instead of replying to the next ``count``
        requests (after executing them) — a mid-invoke crash.  Armed,
        no request is plain: each takes :meth:`_reply_for`, which counts
        the crashes down and makes requests plain again after the last."""
        self._fail_next_replies += count
        self._plain = None

    def request_shutdown(self) -> None:
        """Stop serving after the currently executing request's reply is
        sent (safe to call from inside a served operation)."""
        self._shutdown_after_reply = True

    # --- lifecycle ------------------------------------------------------
    async def start(self) -> int:
        family = socket.AF_INET6 if ":" in self.host else socket.AF_INET
        self._listener = socket.create_server(
            (self.host, self.port), family=family, backlog=100
        )
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._loop = asyncio.get_running_loop()
        self._closed = asyncio.Event()
        self._loop.add_reader(self._listener, self._accept)
        return self.port

    async def wait_closed(self) -> None:
        """Returns once serving has stopped: the listener and every
        connection closed, every connection thread finished (a request
        in flight runs to completion first)."""
        assert self._closed is not None, "start() first"
        await self._closed.wait()
        self._loop.remove_reader(self._listener)
        self._listener.close()
        connections = list(self._connections.items())
        for sock, _ in connections:
            try:
                sock.shutdown(socket.SHUT_RDWR)  # wakes its thread
            except OSError:
                pass  # that thread closed it first
        for _, thread in connections:
            thread.join()

    def stop(self) -> None:
        """Make :meth:`wait_closed` return; callable from any thread."""
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._closed.set)
            except RuntimeError:
                pass  # the loop is closed: already stopped

    def _accept(self) -> None:
        try:
            sock, peer = self._listener.accept()
        except OSError:
            return  # the peer gave up between readiness and accept
        sock.setblocking(True)  # not everywhere the default after accept
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        thread = threading.Thread(
            target=self._serve, args=(sock, peer), daemon=True,
            name=f"repro-socket-server:{self.port}<-{peer[1]}",
        )
        self._connections[sock] = thread
        thread.start()

    def _serve(self, sock: socket.socket, peer: Tuple[str, int]) -> None:
        """One connection, start to finish on its own thread.  Every
        whole frame received is decoded, executed and answered before
        the next ``recv``, so a body view never outlives its bytes.  A
        plain request is answered here, with one call of the registry
        and one packed reply; every other frame by :meth:`_reply_for`.
        A connection dropped for the peer's doing is logged with why: a
        malformed or stalled frame as a warning, a hang-up as info."""
        frames = wire.FrameBuffer()
        receive, recv_into = frames.receive, sock.recv_into
        # The registry's ``call`` is looked up per frame, not bound here:
        # a tracer may wrap it on the class while the connection is open.
        domain, registry = self._domain, self.registry
        try:
            while True:
                body = receive(recv_into)
                if body is None:
                    if not frames.pending():
                        return  # the peer hung up between frames
                    # Only now, with part of a frame buffered, does the
                    # socket carry a timeout; idle, it has none.
                    body = _rest_of_frame(
                        sock, frames, time.monotonic() + FRAME_TIMEOUT_S
                    )
                    sock.settimeout(None)
                with domain:
                    msg = wire.unpack_body(body)
                    self.frames_in += 1
                    self.bytes_in += msg.nbytes
                    try:
                        if (msg.kind != self._plain or type(msg.payload) is not list
                                or type(msg.kwargs) is not dict or msg.op == PING_OP):
                            kind, value = self._reply_for(msg)
                            reply = wire.pack_frame(kind, msg.seq, "", "", value)
                        else:  # a plain request
                            value = registry.call(
                                msg.target, msg.op, msg.payload, msg.kwargs)
                            self.ops_served += 1
                            reply = wire.pack_frame(REPLY, msg.seq, "", "", value)
                    except _Crash:
                        return  # executed, never replied
                    except Exception as exc:
                        # Raised by the op, or by packing what it returned
                        # (outside the wire type system): an error reply.
                        reply = wire.pack_frame(ERROR, msg.seq, "", "", exc)
                    self.frames_out += 1
                    self.bytes_out += len(reply)
                sock.sendall(reply)
                if self._shutdown_after_reply:
                    return
        except (wire.WireError, OSError) as exc:
            # Malformed, timed out or gone: this connection only.
            at_fault = isinstance(exc, (wire.WireError, socket.timeout))
            _log.log(
                logging.WARNING if at_fault else logging.INFO,
                "dropped connection from %s:%d: %r", *peer[:2], exc,
            )
        finally:
            sock.close()
            del self._connections[sock]
            if self._shutdown_after_reply:
                self.stop()  # the farewell reply has been sent

    def _reply_for(self, msg: wire.Message) -> Tuple[int, Any]:
        """The kind and value of the reply to a frame :meth:`_serve` does
        not answer itself: a compound, a ping, a malformed call or a
        frame of a reply kind (both raise) — or any frame while a crash
        is armed, which runs and then raises :class:`_Crash` in place of
        its reply or error."""
        try:
            if msg.kind == COMPOUND:
                return COMPOUND_REPLY, self._run_compound(msg)
            if msg.kind != REQUEST:
                raise InvocationError(
                    f"malformed call: a frame of kind {msg.kind} is not a request"
                )
            if msg.op == PING_OP:
                return REPLY, None
            _check_call(msg.payload, msg.kwargs)
            value = self.registry.call(msg.target, msg.op, msg.payload, msg.kwargs)
            self.ops_served += 1
            return REPLY, value
        finally:
            if self._fail_next_replies:
                self._fail_next_replies -= 1
                self._plain = None if self._fail_next_replies else REQUEST
                raise _Crash

    def _run_compound(self, msg: wire.Message) -> List[Tuple[str, Any]]:
        """Execute a batch; ``(status, value)`` per sub-op where status
        is OK (value = result), ERRORED (value = exception), or SKIPPED
        (fail-fast abort; value = None)."""
        _check_call(msg.payload, msg.kwargs)
        for call in msg.payload:
            if not (isinstance(call, (list, tuple)) and len(call) == 4
                    and type(call[0]) is type(call[1]) is str):
                raise InvocationError(
                    "malformed compound: a call is [target, op, args, kwargs]"
                )
            _check_call(call[2], call[3])
        self.compound_batches += 1
        fail_fast = msg.kwargs.get("fail_fast", True)
        outcomes: List[Tuple[str, Any]] = []
        failed = False
        for target, op, args, kwargs in msg.payload:
            if failed and fail_fast:
                outcomes.append((SKIPPED, None))
                continue
            try:
                outcomes.append((OK, self.registry.call(target, op, args, kwargs)))
                self.ops_served += 1
            except Exception as exc:
                outcomes.append((ERRORED, exc))
                failed = True
        return outcomes


def _check_call(args: Any, kwargs: Any) -> None:
    """The shape of a call as read off the wire (the codec has already
    made every dict key a str); :meth:`SocketServer._serve` tests a
    plain request's inline."""
    if not isinstance(args, (list, tuple)) or type(kwargs) is not dict:
        raise InvocationError(_MALFORMED_CALL)


class _Crash(Exception):
    """An armed ``fail_next_reply``: the connection drops unanswered."""


class ServerThread:
    """Run a :class:`SocketServer`'s lifecycle loop in a daemon thread —
    the in-process harness tests and benchmarks use; a real deployment
    runs it in its own OS process (``repro.serve``)."""

    def __init__(self, server: SocketServer) -> None:
        self.server = server
        self._started = threading.Event()
        #: How the thread ended: None, or what it died with.
        self._done: Future = Future()
        self._thread = threading.Thread(
            target=self._run, name="repro-socket-server", daemon=True
        )

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
            self._done.set_result(None)
        except BaseException as exc:  # surfaces in start() or stop()
            self._done.set_exception(exc)
        self._started.set()

    async def _main(self) -> None:
        await self.server.start()
        self._started.set()
        await self.server.wait_closed()

    def start(self) -> int:
        """Start serving; returns the bound port."""
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("socket server failed to start in time")
        if self._done.done():
            self._done.result()  # raises the startup failure
        return self.server.port

    def stop(self, timeout: float = 5.0) -> None:
        """Stop serving and wait for the thread to end: raises what it
        died with, or ``TimeoutError`` if it is still serving."""
        self.server.stop()
        self._done.result(timeout)


class SocketTransport:
    """Client half of the socket pair.

    One blocking TCP socket: each ``invoke`` sends one request frame and
    blocks for the matching reply.  The connection is established lazily
    and re-established after any failure (or :meth:`close`), so a healed
    server is reachable again on the next call.

    Retry semantics mirror :func:`repro.ipc.retry.retry_send`: with a
    :class:`~repro.ipc.retry.RetryPolicy` installed, *send-phase*
    failures (connect refused/timed out, request write failed — the
    server never saw the op) back off and retry; a failure while waiting
    for the reply means the op may have executed, so it is retried only
    for ops declared idempotent.  Backoff here is wall-clock — there is
    no virtual clock spanning two processes.
    """

    def __init__(
        self,
        host: str,
        port: int,
        src: str = "client",
        dst: str = "server",
        connect_timeout_s: float = 5.0,
        reply_timeout_s: float = FRAME_TIMEOUT_S,
        retry_policy=None,
    ) -> None:
        self.host = host
        self.port = port
        self.src = src
        self.dst = dst
        self.connect_timeout_s = connect_timeout_s
        self.reply_timeout_s = reply_timeout_s
        self.retry_policy = retry_policy
        self.messages = 0
        self.bytes_out = 0
        self.bytes_in = 0
        self.retries = 0
        self.reconnects = 0
        self._seqs = itertools.count(1)
        self._sock: Optional[socket.socket] = None
        self._frames = wire.FrameBuffer()

    # --- connection management ------------------------------------------
    def close(self) -> None:
        """Drop the connection; the next call reconnects."""
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._frames.clear()

    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
        except OSError as exc:
            raise _send_phase(NetworkPartitionError(
                f"connect to {self.host}:{self.port} failed: "
                f"{type(exc).__name__}: {exc}"
            )) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.reply_timeout_s)
        self.reconnects += 1
        self._sock = sock
        return sock

    def _exchange(self, kind: int, target: str, op: str, args: list,
                  kwargs: Optional[dict]) -> wire.Message:
        """One request frame out, one reply frame in.  Raises transient
        errors tagged with whether the failure was send-phase.  The
        reply's first bytes get ``reply_timeout_s`` (the socket's
        timeout), and the rest of it ``reply_timeout_s`` from then, as
        :data:`FRAME_TIMEOUT_S` has it at the server."""
        sock = self._sock or self._connect()
        seq = next(self._seqs)
        frame = wire.pack_frame(kind, seq, target, op, args, kwargs)
        try:
            sock.sendall(frame)
        except OSError as exc:
            self.close()
            raise _send_phase(NodeCrashedError(
                f"request write to {self.dst!r} failed: {exc}"
            )) from exc
        self.messages += 1
        self.bytes_out += len(frame)
        try:
            body = self._frames.receive(sock.recv_into)
            if body is None:
                frames = self._frames
                if not frames.pending():
                    raise ConnectionError(f"closed mid-invoke (op {op!r})")
                body = _rest_of_frame(
                    sock, frames, time.monotonic() + self.reply_timeout_s
                )
                sock.settimeout(self.reply_timeout_s)
            msg = wire.unpack_body(body)
        except socket.timeout as exc:
            self.close()
            raise MessageDroppedError(
                f"no reply from {self.dst!r} within "
                f"{self.reply_timeout_s}s (op {op!r})"
            ) from exc
        except (wire.WireError, OSError) as exc:
            self.close()
            raise NodeCrashedError(
                f"connection to {self.dst!r} died awaiting reply: {exc}"
            ) from exc
        if msg.seq != seq:
            self.close()
            raise wire.WireError(
                f"reply seq {msg.seq} does not match request seq {seq}"
            )
        self.bytes_in += msg.nbytes
        return msg

    def _retry(self, exc: TransientNetworkError, kind: int, target: str,
               op: str, args: list, kwargs: Optional[dict],
               idempotent: bool) -> wire.Message:
        """The exchange failed with ``exc``: resend it after a backoff
        while the policy allows — after a send-phase failure always,
        after a lost reply only for an idempotent op — and return the
        reply that comes, or raise the last failure."""
        policy, attempt, waited_us = self.retry_policy, 0, 0.0
        while (
            policy is not None
            and (getattr(exc, "_send_phase", False) or idempotent)
            and policy.should_retry(attempt, waited_us, exc)
        ):
            backoff = policy.backoff_us(attempt)
            time.sleep(backoff / 1e6)
            waited_us += backoff
            attempt += 1
            self.retries += 1
            try:
                return self._exchange(kind, target, op, args, kwargs)
            except TransientNetworkError as again:
                exc = again
        raise exc

    def _call(self, kind: int, target: str, op: str, args: list,
              kwargs: Optional[dict], idempotent: bool) -> Any:
        """:meth:`invoke` for any frame kind: the reply's value, or the
        error it carries (an error the *op* raised is never retried)."""
        try:
            msg = self._exchange(kind, target, op, args, kwargs)
        except TransientNetworkError as exc:
            msg = self._retry(exc, kind, target, op, args, kwargs, idempotent)
        if msg.kind == ERROR:
            raise msg.payload
        return msg.payload

    # --- round trips ------------------------------------------------------
    def send(self, src, dst, nbytes: int) -> None:
        """One real round trip carrying ``nbytes`` of payload and
        calling no export — the floor under every op.  The connection
        fixes both ends; ``src``/``dst`` only keep the call shaped like
        :meth:`Network.transfer`, which is what it is measured against."""
        self._call(REQUEST, "", PING_OP, [b"\x00" * nbytes], None, True)

    def bind(self, target: str, idempotent: Iterable[str] = ()) -> "RemoteStub":
        """A stub whose method calls go through this transport."""
        return RemoteStub(self, target, idempotent)

    def invoke(self, target, op, args=(), kwargs=None, idempotent=False):
        # _call's body, written out: this runs once per op, and the
        # exchange is entered directly (the retry loop only on failure).
        args = list(args)
        try:
            msg = self._exchange(REQUEST, target, op, args, kwargs)
        except TransientNetworkError as exc:
            msg = self._retry(exc, REQUEST, target, op, args, kwargs,
                              idempotent)
        if msg.kind == ERROR:
            raise msg.payload
        return msg.payload

    def invoke_compound(self, calls, fail_fast=True, idempotent=False):
        return self._call(  # a (status, value) tuple per call
            COMPOUND, "", "",
            [[target, op, list(args), kwargs or {}]
             for target, op, args, kwargs in calls],
            {"fail_fast": fail_fast}, idempotent,
        )

    def __repr__(self) -> str:
        return f"SocketTransport({self.host}:{self.port})"


def _send_phase(exc: TransientNetworkError) -> TransientNetworkError:
    """Tag a transport error as send-phase: the server never saw the
    request, so resending cannot double-execute anything."""
    exc._send_phase = True
    return exc


class RemoteStub:
    """Client-side handle to one exported object.

    Attribute access yields bound, batchable operations::

        fs = transport.bind("fs", idempotent=("stat", "pread"))
        fs.mkdir("logs")                 # one frame (or direct call)
        batch = CompoundInvocation(None)
        batch.add(fs.stat, "logs")       # queued ...
        batch.commit()                   # ... one compound frame
    """

    def __init__(self, transport: SocketTransport, target: str,
                 idempotent: Iterable[str] = ()) -> None:
        self._transport = transport
        self._target = target
        self._idempotent = frozenset(idempotent)

    def __getattr__(self, op: str) -> "StubOperation":
        if op.startswith("_"):
            raise AttributeError(op)
        # Kept: the next access finds it without coming through here.
        operation = self.__dict__[op] = StubOperation(self, op)
        return operation

    def __repr__(self) -> str:
        return f"<RemoteStub {self._target!r} via {self._transport!r}>"


class StubOperation:
    """One bound stub operation — callable, and recognised by
    :class:`~repro.ipc.compound.CompoundInvocation` for batching."""

    __slots__ = ("_wire_call", "__name__")

    def __init__(self, stub: RemoteStub, op: str) -> None:
        #: (transport, target, op, idempotent)
        self._wire_call: Tuple[SocketTransport, str, str, bool] = (
            stub._transport, stub._target, op, op in stub._idempotent
        )
        self.__name__ = op

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        transport, target, op, idempotent = self._wire_call
        return transport.invoke(target, op, args, kwargs, idempotent)
