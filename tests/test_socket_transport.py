"""The real socket transport: framing, round trips, compound batches,
failure mapping, retries, and parity with the served objects called in
process."""

import asyncio
import logging
import os
import socket
import sys
import threading
import time

import pytest

from repro.errors import (
    InvocationError,
    MessageDroppedError,
    NodeCrashedError,
    TransientNetworkError,
    UnixError,
)
from repro.ipc import CompoundInvocation
from repro.ipc.network import NetworkPartitionError
from repro.ipc.retry import RetryPolicy
from repro.ipc import transport, wire
from repro.ipc.transport import (
    ServerThread,
    SocketServer,
    SocketTransport,
)
from repro.serve import Control, FileService, build_service
from repro.world import World


# --- harness ----------------------------------------------------------------

class ServedWorld:
    """One FileService world behind an in-process socket server."""

    def __init__(self, stack="sfs"):
        self.world, self.node, self.service = build_service(stack)
        self.server = self.node.serve()
        self.node.expose("fs", self.service)
        self.node.expose("control", Control(self.world, self.server))
        self.thread = ServerThread(self.server)
        self.port = self.thread.start()

    def client(self, **kwargs):
        kwargs.setdefault("dst", self.node.name)
        kwargs.setdefault("connect_timeout_s", 2.0)
        kwargs.setdefault("reply_timeout_s", 5.0)
        return SocketTransport("127.0.0.1", self.port, **kwargs)

    def stop(self):
        self.thread.stop()


@pytest.fixture
def served():
    harness = ServedWorld()
    yield harness
    harness.stop()


class ScriptedPeer:
    """A raw TCP listener that reads one request frame, then runs
    ``script(conn, request_seq)`` — a server that misbehaves on cue."""

    def __init__(self, script):
        self._script = script
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        conn, _ = self._listener.accept()
        with conn:
            self._script(conn, recv_frames(conn, 1)[0].seq)

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


def recv_frames(sock, count):
    """Read ``count`` whole frames off a raw socket."""
    frames, messages = wire.FrameBuffer(), []
    while len(messages) < count:
        nbytes = sock.recv_into(frames.writable())
        assert nbytes, "peer closed early"
        frames.received(nbytes)
        while True:
            body = frames.next_frame()
            if body is None:
                break
            messages.append(wire.unpack_body(body))
    return messages


def connection_threads(server):
    """The live threads serving connections of ``server``."""
    prefix = f"repro-socket-server:{server.port}<-"
    return [t for t in threading.enumerate() if t.name.startswith(prefix)]


def wait_until(condition, timeout=2.0):
    """Poll ``condition`` until it holds or ``timeout`` passes; returns
    whether it held."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)
    return True


def closed_port() -> int:
    """A localhost port with nothing listening on it."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# --- wire format ------------------------------------------------------------

class TestWireCodec:
    def test_value_round_trip(self):
        values = [
            None, True, False, 0, -1, 2**62, -(2**70), 3.25, "héllo",
            b"\x00\xffbytes", [1, [2, 3]], ("a", None), {"k": {"n": 1}},
            [{"mixed": (b"x", 1.5, False)}],
        ]
        for value in values:
            assert wire.decode_value(wire.encode_value(value)) == value

    def test_tuple_list_distinction_survives(self):
        assert wire.decode_value(wire.encode_value((1, 2))) == (1, 2)
        assert isinstance(wire.decode_value(wire.encode_value([1, 2])), list)

    def test_file_attributes_struct(self):
        from repro.fs.attributes import FileAttributes
        from repro.storage.inode import FileType

        attrs = FileAttributes(
            size=77, atime_us=1, mtime_us=2, ctime_us=3,
            ftype=FileType.DIRECTORY, nlink=2,
        )
        back = wire.decode_value(wire.encode_value(attrs))
        assert back == attrs and isinstance(back.ftype, FileType)

    def test_exception_round_trip(self):
        exc = wire.decode_value(wire.encode_value(UnixError("ENOENT", "gone")))
        assert isinstance(exc, UnixError)
        assert exc.code == "ENOENT" and "gone" in str(exc)
        exc = wire.decode_value(wire.encode_value(NodeCrashedError("down")))
        assert isinstance(exc, NodeCrashedError)

    def test_unknown_exception_decodes_as_remote_error(self):
        fields = {"type": "SomethingWeird", "message": "boom"}
        exc = wire.exception_from_fields(fields)
        assert isinstance(exc, wire.RemoteError)
        assert exc.remote_type == "SomethingWeird"

    def test_unencodable_value_raises(self):
        with pytest.raises(wire.WireEncodeError):
            wire.encode_value(object())
        with pytest.raises(wire.WireEncodeError):
            wire.encode_value({1: "non-string key"})

    def test_frame_round_trip(self):
        frame = wire.pack_frame(wire.REQUEST, 7, "fs", "stat", ["a"])
        msg = wire.unpack_body(frame[4:])
        assert (msg.kind, msg.seq, msg.target, msg.op) == (
            wire.REQUEST, 7, "fs", "stat"
        )
        assert msg.payload == ["a"] and msg.kwargs == {}

    def test_corrupt_frames_raise(self):
        frame = wire.pack_frame(wire.REPLY, 1, "", "", None)
        with pytest.raises(wire.WireError):
            wire.unpack_body(frame[4:-1])          # truncated
        with pytest.raises(wire.WireError):
            wire.unpack_body(b"XX" + frame[6:])    # bad magic
        with pytest.raises(wire.WireError):
            wire.decode_value(b"\xfe")             # unknown tag


# --- round trips ------------------------------------------------------------

class TestSocketRoundTrip:
    def test_invoke_round_trip(self, served):
        client = served.client()
        try:
            fs = client.bind("fs")
            fs.mkdir("d")
            assert fs.write_file("d/x", b"payload") == 7
            assert fs.read_file("d/x") == b"payload"
            assert fs.listdir("") == ["d"]
            attrs = fs.stat("d/x")
            assert attrs.size == 7
        finally:
            client.close()

    def test_remote_errors_surface_typed(self, served):
        client = served.client()
        try:
            fs = client.bind("fs")
            with pytest.raises(UnixError) as excinfo:
                fs.stat("missing")
            assert excinfo.value.code == "ENOENT"
        finally:
            client.close()

    def test_ping_send_surface(self, served):
        client = served.client()
        try:
            client.send(None, None, 1024)  # raw round trip, 1 KB payload
            assert client.messages == 1
            assert client.bytes_out > 1024
        finally:
            client.close()

    def test_compound_batch_one_frame(self, served):
        client = served.client()
        try:
            fs = client.bind("fs")
            fs.mkdir("d")
            for name in ("a", "b", "c"):
                fs.write_file(f"d/{name}", name.encode())
            frames = client.messages
            batch = CompoundInvocation()
            batch.add(fs.stat, "d/a")
            batch.add(fs.stat, "d/b")
            batch.add(fs.stat, "d/c")
            result = batch.commit()
            assert client.messages - frames == 1
            assert served.server.compound_batches == 1
            assert [a.size for a in result.values()] == [1, 1, 1]
        finally:
            client.close()

    def test_stub_operations_are_created_once(self, served):
        client = served.client()
        try:
            fs = client.bind("fs", idempotent=("stat",))
            stat = fs.stat
            assert fs.stat is stat and fs.mkdir is not stat
            assert stat._wire_call == (client, "fs", "stat", True)
            assert fs.mkdir._wire_call[3] is False
            with pytest.raises(AttributeError):
                fs._private
            # The kept operation is still what a batch recognises.
            fs.write_file("f", b"12")
            frames = client.messages
            batch = CompoundInvocation()
            batch.add(stat, "f")
            batch.add(fs.stat, "f")
            assert [a.size for a in batch.commit().values()] == [2, 2]
            assert client.messages - frames == 1
        finally:
            client.close()

    def test_compound_fail_fast_demux(self, served):
        client = served.client()
        try:
            fs = client.bind("fs")
            fs.write_file("ok", b"fine")
            batch = CompoundInvocation()
            batch.add(fs.stat, "ok")
            batch.add(fs.stat, "missing")
            batch.add(fs.stat, "ok")
            result = batch.commit()
            assert not result.ok and result.failed_index == 1
            assert result[0].size == 4
            assert isinstance(result.error.cause, UnixError)
            from repro.ipc import CompoundSubOpError

            with pytest.raises(CompoundSubOpError):
                result[2]  # skipped: raises the aborting failure
        finally:
            client.close()


    def test_frames_larger_than_the_receive_buffer(self, served):
        client = served.client()
        try:
            fs = client.bind("fs")
            big = bytes(range(251)) * (3 * wire.RECV_BUFFER // 251)
            assert len(big) > 2 * wire.RECV_BUFFER
            assert fs.write_file("big", big) == len(big)   # request > buffer
            assert fs.read_file("big") == big              # reply > buffer
            assert fs.stat("big").size == len(big)         # back to small
            assert client.reconnects == 1
        finally:
            client.close()

    def test_pipelined_requests_answered_in_order(self, served):
        # Two request frames in one segment: the server parses both out
        # of one receive buffer and replies in arrival order.
        pings = b"".join(
            wire.pack_frame(wire.REQUEST, seq, "control", "ping", [])
            for seq in (1, 2)
        )
        with socket.create_connection(("127.0.0.1", served.port)) as sock:
            sock.settimeout(5)
            sock.sendall(pings)
            replies = recv_frames(sock, 2)
        assert [(m.seq, m.kind, m.payload) for m in replies] == [
            (1, wire.REPLY, "pong"), (2, wire.REPLY, "pong")
        ]

    def test_wrong_shaped_calls_get_an_error_reply(self, served):
        # Well-framed, but not a call: the answer is an ERROR frame and
        # the connection (and the loop under it) keeps serving.
        def hand_built(kind, seq, *values):
            body = (b"SW" + bytes([wire.VERSION, kind]) + seq.to_bytes(4, "big")
                    + b"\x07\x04controlping"
                    + b"".join(map(wire.encode_value, values)))
            return len(body).to_bytes(4, "big") + body

        ping = ["control", "ping", [], {}]
        bad = [
            wire.pack_frame(wire.REQUEST, 1, "control", "ping", None),
            wire.pack_frame(wire.REQUEST, 2, "control", "ping", "ab"),
            hand_built(wire.REQUEST, 3, [], "not a dict"),
            wire.pack_frame(wire.COMPOUND, 4, "", "", None),
            wire.pack_frame(wire.COMPOUND, 5, "", "", [ping[:3]]),
            wire.pack_frame(wire.COMPOUND, 6, "", "", [ping, None]),
            wire.pack_frame(wire.COMPOUND, 7, "", "", [["control", 5, [], {}]]),
            wire.pack_frame(wire.COMPOUND, 8, "", "", [["control", "ping", 1, {}]]),
            hand_built(wire.COMPOUND, 9, [ping], ["fail_fast"]),
        ]
        good = wire.pack_frame(wire.COMPOUND, 10, "", "", [ping], {"fail_fast": False})
        with socket.create_connection(("127.0.0.1", served.port)) as sock:
            sock.settimeout(5)
            sock.sendall(b"".join(bad) + good)
            replies = recv_frames(sock, len(bad) + 1)
        for seq, msg in enumerate(replies[:-1], start=1):
            assert (msg.seq, msg.kind) == (seq, wire.ERROR)
            assert type(msg.payload) is InvocationError
            assert "malformed" in str(msg.payload)
        assert (replies[-1].kind, replies[-1].payload) == (
            wire.COMPOUND_REPLY, [("ok", "pong")]
        )
        assert served.server.compound_batches == 1

    def test_version_1_frame_closes_the_connection(self, served):
        v1 = (b"SW\x01\x01\x00\x00\x00\x01\x00\x03raw\x00\x06server"
              b"\x00\x04ping\x0a\x00\x00\x00\x00")
        with socket.create_connection(("127.0.0.1", served.port)) as sock:
            sock.settimeout(5)
            sock.sendall(len(v1).to_bytes(4, "big") + v1)
            assert sock.recv(1) == b""
        client = served.client()
        try:
            assert client.bind("control").ping() == "pong"
        finally:
            client.close()

    def test_close_is_not_terminal(self, served):
        client = served.client()
        control = client.bind("control")
        assert control.ping() == "pong"
        client.close()
        client.close()  # idempotent
        # The next call reconnects lazily, like after any other failure.
        assert control.ping() == "pong"
        assert client.reconnects == 2
        client.close()

    def test_reprs_name_the_endpoint_without_connecting(self):
        client = SocketTransport("127.0.0.1", closed_port())
        name = f"SocketTransport(127.0.0.1:{client.port})"
        assert repr(client) == name
        assert repr(client.bind("fs")) == f"<RemoteStub 'fs' via {name}>"
        assert client.reconnects == 0

    def test_shutdown_reply_arrives_before_serving_stops(self, served):
        client = served.client()
        try:
            assert client.bind("control").shutdown() == "bye"
        finally:
            client.close()
        served.thread._thread.join(timeout=5)
        assert not served.thread._thread.is_alive()


# --- failure mapping and retries --------------------------------------------

class TestFailureMapping:
    def test_connect_refused_is_partition(self):
        client = SocketTransport(
            "127.0.0.1", closed_port(), connect_timeout_s=0.5
        )
        try:
            with pytest.raises(NetworkPartitionError):
                client.bind("fs").stat("x")
        finally:
            client.close()

    def test_connect_error_is_transient(self):
        client = SocketTransport(
            "127.0.0.1", closed_port(), connect_timeout_s=0.5
        )
        try:
            with pytest.raises(TransientNetworkError):
                client.invoke("fs", "stat", ("x",))
        finally:
            client.close()

    def test_server_crash_mid_invoke(self, served):
        client = served.client()
        try:
            fs = client.bind("fs")
            fs.write_file("f", b"data")
            served.server.fail_next_reply()
            # The op executes server-side but the reply never arrives.
            with pytest.raises(NodeCrashedError):
                fs.stat("f")
            # The transport reconnects on the next call.
            assert fs.stat("f").size == 4
        finally:
            client.close()

    def test_idempotent_retry_covers_crash(self, served):
        policy = RetryPolicy(
            max_attempts=4, base_backoff_us=1000.0, timeout_us=1e6
        )
        client = served.client(retry_policy=policy)
        try:
            fs = client.bind("fs", idempotent=FileService.IDEMPOTENT_OPS)
            fs.write_file("f", b"data")
            served.server.fail_next_reply()
            # stat is declared idempotent: the lost reply is retried
            # through a fresh connection and succeeds.
            assert fs.stat("f").size == 4
            assert client.retries == 1
        finally:
            client.close()

    def test_mutating_op_not_retried_on_lost_reply(self, served):
        policy = RetryPolicy(
            max_attempts=4, base_backoff_us=1000.0, timeout_us=1e6
        )
        client = served.client(retry_policy=policy)
        try:
            fs = client.bind("fs", idempotent=FileService.IDEMPOTENT_OPS)
            served.server.fail_next_reply()
            # write_file executed server-side; resending could double-
            # apply, so the crash surfaces instead.
            with pytest.raises(NodeCrashedError):
                fs.write_file("f", b"data")
            assert client.retries == 0
        finally:
            client.close()

    def test_transient_error_raised_by_the_op_is_not_retried(self):
        # The reply arrived: NodeCrashedError here is the op's own answer
        # (a fault further down the stack), not a failure of this hop.
        class Flaky:
            calls = 0

            def poke(self):
                self.calls += 1
                raise NodeCrashedError("storage node is down")

        flaky = Flaky()
        thread = ServerThread(SocketServer({"flaky": flaky}))
        client = SocketTransport(
            "127.0.0.1", thread.start(),
            retry_policy=RetryPolicy(max_attempts=4, base_backoff_us=1000.0),
        )
        try:
            with pytest.raises(NodeCrashedError, match="storage node is down"):
                client.bind("flaky", idempotent=("poke",)).poke()
            assert (flaky.calls, client.retries) == (1, 0)
        finally:
            client.close()
            thread.stop()

    def test_garbage_request_drops_only_that_connection(self, served, caplog):
        good = served.client()
        caplog.set_level(logging.INFO, logger="repro.ipc.transport")
        try:
            assert good.bind("control").ping() == "pong"
            for junk in (
                b"\x00\x00\x00\x05junk!",                   # bad magic
                (wire.MAX_FRAME + 1).to_bytes(4, "big"),     # over the cap
                b"\x00\x00\x00\x0dSW\x02\x01\x00\x00\x00\x01"
                b"\x02\x00\xff\xfe\x00",                      # invalid utf-8
            ):
                with socket.create_connection(("127.0.0.1", served.port)) as bad:
                    bad.settimeout(5)
                    bad.sendall(junk)
                    assert bad.recv(1) == b""  # dropped, no reply
            assert good.bind("control").ping() == "pong"
            assert good.reconnects == 1
            # Each drop was logged as the peer's fault, not as a hang-up.
            assert [
                r.levelno for r in caplog.records
                if r.name == "repro.ipc.transport"
            ] == [logging.WARNING] * 3
            # Each bad connection took its thread with it.
            assert wait_until(
                lambda: len(connection_threads(served.server)) == 1
            )
        finally:
            good.close()

    def test_undecodable_reply_is_a_crash(self):
        def script(conn, seq):
            reply = wire.pack_frame(wire.REPLY, seq, "", "", "x")
            reply[-1:] = b"\xff"  # the string payload is no longer utf-8
            conn.sendall(reply)

        peer = ScriptedPeer(script)
        client = SocketTransport("127.0.0.1", peer.port, reply_timeout_s=5.0)
        try:
            with pytest.raises(NodeCrashedError):
                client.invoke("fs", "stat", ("x",))
        finally:
            client.close()
            peer.close()

    def test_reply_deadline_spans_the_frame(self):
        # Half a reply, then a trickle: every recv returns well inside
        # the timeout, but the frame as a whole never completes.
        def script(conn, seq):
            reply = wire.pack_frame(wire.REPLY, seq, "", "", b"x" * 4000)
            conn.sendall(reply[:2000])
            try:
                for at in range(2000, 2040):
                    time.sleep(0.05)
                    conn.sendall(reply[at:at + 1])
            except OSError:
                pass  # the client gave up and closed, as it should

        peer = ScriptedPeer(script)
        client = SocketTransport("127.0.0.1", peer.port, reply_timeout_s=0.4)
        try:
            started = time.monotonic()
            with pytest.raises(MessageDroppedError):
                client.invoke("fs", "read", (1,))
            assert time.monotonic() - started < 1.5
        finally:
            client.close()
            peer.close()

    def test_timeout_is_set_at_connect_not_on_every_call(self, served, monkeypatch):
        calls = []
        plain = socket.socket.settimeout

        def counting(sock, value):
            calls.append(value)
            plain(sock, value)

        client = served.client(reply_timeout_s=4.0)
        try:
            control = client.bind("control")
            assert control.ping() == "pong"  # connects
            assert client._sock.gettimeout() == 4.0
            monkeypatch.setattr(socket.socket, "settimeout", counting)
            for _ in range(5):
                assert control.ping() == "pong"
            assert calls == []
        finally:
            client.close()

    def test_timeout_is_restored_after_a_reply_in_pieces(self):
        # The second recv runs under what is left of the deadline; the
        # next call must again have all of reply_timeout_s.
        def script(conn, seq):
            reply = wire.pack_frame(wire.REPLY, seq, "", "", b"x" * 4000)
            conn.sendall(reply[:2000])
            time.sleep(0.1)
            conn.sendall(reply[2000:])

        peer = ScriptedPeer(script)
        client = SocketTransport("127.0.0.1", peer.port, reply_timeout_s=5.0)
        try:
            assert client.invoke("fs", "read", (1,)) == b"x" * 4000
            assert client._sock.gettimeout() == 5.0
        finally:
            client.close()
            peer.close()

    def test_a_frame_past_its_deadline_times_out_before_reading(self):
        mine, peer = socket.socketpair()
        with mine, peer:
            peer.sendall(b"\x00\x00\x00\x05SW")
            frames = wire.FrameBuffer(64)
            with pytest.raises(socket.timeout):
                transport._rest_of_frame(mine, frames, time.monotonic() - 1)
            assert frames.pending() == 0  # the waiting bytes were not read

    def test_a_result_outside_the_wire_types_is_an_error_reply(self):
        # The op ran and returned a set: the caller gets that as an error
        # and the connection carries on.
        class Odd:
            def numbers(self):
                return {1, 2}

            def ping(self):
                return "pong"

        thread = ServerThread(SocketServer({"odd": Odd()}))
        client = SocketTransport("127.0.0.1", thread.start())
        try:
            with pytest.raises(wire.RemoteError, match="set cannot cross"):
                client.invoke("odd", "numbers")
            assert client.invoke("odd", "ping") == "pong"
            assert client.reconnects == 1
        finally:
            client.close()
            thread.stop()

    def test_a_failed_request_write_is_a_send_phase_crash(self):
        client = SocketTransport("127.0.0.1", closed_port())
        mine, peer = socket.socketpair()
        with peer:
            mine.shutdown(socket.SHUT_WR)  # the next send fails: EPIPE
            client._sock = mine
            with pytest.raises(NodeCrashedError, match="request write") as info:
                client.invoke("fs", "stat", ("x",))
        # The server never saw the op, so a retry policy may resend it.
        assert info.value._send_phase
        assert client._sock is None and mine.fileno() == -1
        assert client.messages == 0

    def test_a_reply_to_another_request_closes_the_connection(self):
        def script(conn, seq):
            conn.sendall(wire.pack_frame(wire.REPLY, seq + 1, "", "", "stale"))

        peer = ScriptedPeer(script)
        client = SocketTransport("127.0.0.1", peer.port, reply_timeout_s=5.0)
        try:
            with pytest.raises(wire.WireError, match="does not match"):
                client.invoke("fs", "stat", ("x",))
            assert client._sock is None and client.bytes_in == 0
        finally:
            client.close()
            peer.close()

    def test_send_phase_retry_after_refused(self):
        # Nothing listens yet: with a policy the connect failures back
        # off and surface only after the attempts are exhausted.
        policy = RetryPolicy(
            max_attempts=3, base_backoff_us=1000.0, timeout_us=1e6
        )
        client = SocketTransport(
            "127.0.0.1", closed_port(),
            connect_timeout_s=0.2, retry_policy=policy,
        )
        try:
            with pytest.raises(NetworkPartitionError):
                client.invoke("fs", "listdir", ())
            assert client.retries == 2  # 3 attempts = 2 retries
        finally:
            client.close()


# --- parity with the served objects ------------------------------------------

def run_script(fs, control, batch):
    """A scripted op sequence; returns every outcome (values and typed
    errors) so a run across the socket and a run in process can be
    compared verbatim.  ``batch`` is the ``CompoundInvocation`` its
    compound step goes through."""
    out = []
    out.append(control.ping())
    out.append(fs.mkdir("dir"))
    out.append(fs.write_file("dir/a", b"alpha"))
    out.append(fs.write_file("dir/b", b"bee"))
    out.append(fs.read_file("dir/a"))
    out.append(fs.listdir(""))
    out.append(fs.listdir("dir"))
    out.append(fs.stat("dir/a"))
    try:
        fs.stat("nope")
    except UnixError as exc:
        out.append(("error", type(exc).__name__, exc.code))
    batch.add(fs.stat, "dir/a")
    batch.add(fs.stat, "nope")
    batch.add(fs.stat, "dir/b")
    result = batch.commit()
    out.append(result[0])
    out.append(("failed_index", result.failed_index))
    out.append(fs.unlink("dir/b"))
    out.append(fs.listdir("dir"))
    return out


class TestBackendParity:
    def test_simulated_and_socket_backends_agree(self, served):
        # A served world driven over TCP, its batch one compound frame.
        client = served.client()
        try:
            socket_out = run_script(
                client.bind("fs"), client.bind("control"), CompoundInvocation()
            )
        finally:
            client.close()

        # The same objects of an identical world called directly: no
        # stub, no frame, the batch a compound region of that world.
        world, _, service = build_service("sfs")
        assert socket_out == run_script(
            service, Control(world), CompoundInvocation(world)
        )


# --- one thread per connection, one domain lock -------------------------------

class Tally:
    """Read, yield, write: loses updates unless calls are serialised."""

    value = 0

    def bump(self):
        seen = self.value
        time.sleep(0)  # lets any other runnable thread in
        self.value = seen + 1
        return seen

    def echo(self, data):
        return data

    def nap(self, seconds):
        time.sleep(seconds)
        self.value += 1


@pytest.fixture
def tally_server():
    tally = Tally()
    server = SocketServer({"tally": tally})
    server.registry.expose("control", Control(World(), server))
    thread = ServerThread(server)
    thread.start()
    yield tally, server, thread
    thread.stop()


def raw_connection(server):
    sock = socket.create_connection(("127.0.0.1", server.port))
    sock.settimeout(5)
    return sock


class TestThreadedServer:
    def test_requests_of_all_connections_run_one_at_a_time(self, tally_server):
        tally, server, _ = tally_server
        workers = 2 * (os.cpu_count() or 2) + 2
        sent = [0] * workers
        errors = []
        stop_at = time.monotonic() + 0.5

        def hammer(index):
            client = SocketTransport("127.0.0.1", server.port,
                                     reply_timeout_s=5.0)
            try:
                bump = client.bind("tally").bump
                while time.monotonic() < stop_at and sent[index] < 400:
                    bump()
                    sent[index] += 1
            except Exception as exc:
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=hammer, args=(i,), daemon=True)
                   for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert min(sent) > 0
        assert tally.value == sum(sent) == server.ops_served
        assert server.frames_in == server.frames_out == sum(sent)

    def test_one_thread_per_connection_and_none_left_behind(self, tally_server):
        _, server, _ = tally_server
        clients = [SocketTransport("127.0.0.1", server.port) for _ in range(3)]
        try:
            for client in clients:
                assert client.bind("control").ping() == "pong"
            assert len(connection_threads(server)) == 3
            assert len(server._connections) == 3
        finally:
            for client in clients:
                client.close()
        assert wait_until(lambda: not connection_threads(server))
        assert server._connections == {}

    def test_half_a_frame_stalls_only_its_own_connection(
        self, tally_server, monkeypatch, caplog
    ):
        _, server, _ = tally_server
        monkeypatch.setattr(transport, "FRAME_TIMEOUT_S", 0.3)
        caplog.set_level(logging.INFO, logger="repro.ipc.transport")
        frame = wire.pack_frame(wire.REQUEST, 1, "control", "ping", [])
        other = SocketTransport("127.0.0.1", server.port, reply_timeout_s=5.0)
        stalled = raw_connection(server)
        try:
            stalled.sendall(frame[:len(frame) // 2])
            started = time.monotonic()
            ping = other.bind("control").ping
            for _ in range(20):
                assert ping() == "pong"  # answered while the other stalls
            # The deadline closes the stalled connection, and only it.
            assert stalled.recv(1) == b""
            assert 0.25 < time.monotonic() - started < 2.0
            assert ping() == "pong"
            assert other.reconnects == 1
            # The server said why it dropped the connection, and whose.
            [record] = [
                r for r in caplog.records if r.name == "repro.ipc.transport"
            ]
            assert record.levelno == logging.WARNING
            assert "%s:%d" % stalled.getsockname() in record.getMessage()
            assert "timed out" in record.getMessage()
        finally:
            stalled.close()
            other.close()

    def test_a_peer_gone_mid_frame_is_logged_as_a_hang_up(
        self, tally_server, caplog
    ):
        _, server, _ = tally_server
        caplog.set_level(logging.INFO, logger="repro.ipc.transport")
        frame = wire.pack_frame(wire.REQUEST, 1, "control", "ping", [])
        with raw_connection(server) as sock:
            sock.sendall(frame[:5])
            peer = "%s:%d" % sock.getsockname()
        assert wait_until(lambda: caplog.records)  # accepted, served, dropped
        [record] = [r for r in caplog.records if r.name == "repro.ipc.transport"]
        assert record.levelno == logging.INFO
        assert peer in record.getMessage()

    def test_frame_deadline_spans_the_frame_not_each_recv(
        self, tally_server, monkeypatch
    ):
        # A trickle: every recv returns well inside the timeout, but the
        # frame as a whole never completes (the client's rule, mirrored).
        _, server, _ = tally_server
        monkeypatch.setattr(transport, "FRAME_TIMEOUT_S", 0.3)
        frame = wire.pack_frame(wire.REQUEST, 1, "tally", "echo", [b"x" * 200])
        with raw_connection(server) as sock:
            started = time.monotonic()
            try:
                for at in range(60):
                    sock.sendall(frame[at:at + 1])
                    time.sleep(0.05)
                dropped = sock.recv(1) == b""
            except OSError:
                dropped = True  # reset under the next byte: closed
            assert dropped
            assert time.monotonic() - started < 2.5
        assert wait_until(lambda: not connection_threads(server))

    def test_a_finished_frame_lifts_the_deadline(self, tally_server, monkeypatch):
        _, server, _ = tally_server
        monkeypatch.setattr(transport, "FRAME_TIMEOUT_S", 0.3)
        frame = wire.pack_frame(wire.REQUEST, 1, "control", "ping", [])
        with raw_connection(server) as sock:
            sock.sendall(frame[:5])
            time.sleep(0.1)
            sock.sendall(frame[5:])
            assert recv_frames(sock, 1)[0].payload == "pong"
            time.sleep(0.5)  # idle for longer than the deadline: no timeout
            sock.sendall(frame)
            assert recv_frames(sock, 1)[0].payload == "pong"

    def test_a_slow_reader_holds_up_only_itself(self, tally_server):
        # Connection A asks for 8 MiB of replies and reads none of them:
        # its thread blocks in sendall, outside the domain lock.
        _, server, _ = tally_server
        blob = b"z" * (1 << 20)
        requests = b"".join(
            wire.pack_frame(wire.REQUEST, seq, "tally", "echo", [blob])
            for seq in range(1, 9)
        )
        other = SocketTransport("127.0.0.1", server.port, reply_timeout_s=5.0)
        slow = raw_connection(server)
        try:
            feeder = threading.Thread(
                target=lambda: slow.sendall(requests), daemon=True
            )
            feeder.start()
            ping = other.bind("control").ping
            for _ in range(20):
                assert ping() == "pong"
                time.sleep(0.005)
            replies = recv_frames(slow, 8)  # now drain: all eight arrive
            feeder.join(timeout=5)
            assert not feeder.is_alive()
            assert [m.seq for m in replies] == list(range(1, 9))
            assert all(m.payload == blob for m in replies)
        finally:
            slow.close()
            other.close()

    def test_one_mebibyte_request_and_reply(self, tally_server):
        _, server, _ = tally_server
        blob = bytes(range(256)) * 4096
        assert len(blob) == 1 << 20 > wire.RECV_BUFFER
        client = SocketTransport("127.0.0.1", server.port, reply_timeout_s=5.0)
        try:
            tally = client.bind("tally")
            assert tally.echo(blob) == blob
            assert tally.echo(b"small") == b"small"  # back to the home buffer
            assert client.reconnects == 1
        finally:
            client.close()

    def test_crash_injection_drops_one_connection(self, tally_server):
        tally, server, _ = tally_server
        first = SocketTransport("127.0.0.1", server.port, reply_timeout_s=5.0)
        second = SocketTransport("127.0.0.1", server.port, reply_timeout_s=5.0)
        try:
            assert second.bind("control").ping() == "pong"
            server.fail_next_reply()
            with pytest.raises(NodeCrashedError):
                first.bind("tally").bump()
            assert tally.value == 1  # executed, never answered
            assert first.bind("tally").bump() == 1  # reconnected
            assert (first.reconnects, second.reconnects) == (2, 1)
            assert second.bind("control").ping() == "pong"
        finally:
            first.close()
            second.close()

    def test_shutdown_from_inside_a_served_op(self):
        server = SocketServer()
        server.registry.expose("control", Control(World(), server))
        thread = ServerThread(server)
        thread.start()
        idle = raw_connection(server)
        client = SocketTransport("127.0.0.1", server.port, reply_timeout_s=5.0)
        try:
            control = client.bind("control")
            assert control.ping() == "pong"  # both connections are accepted
            assert len(connection_threads(server)) == 2
            assert control.shutdown() == "bye"  # the reply comes first
            thread._thread.join(timeout=5)
            assert not thread._thread.is_alive()  # wait_closed() returned
            assert idle.recv(1) == b""
            assert wait_until(lambda: not connection_threads(server))
            assert server._connections == {}
            assert server._listener.fileno() == -1
            client.close()
            with pytest.raises(NetworkPartitionError):
                control.ping()  # nothing listens any more
        finally:
            idle.close()
            client.close()
        thread.stop()  # already stopped: nothing to raise

    def test_stop_waits_for_the_request_in_flight(self, tally_server):
        # stop() cuts every connection at once, so the caller sees a
        # crash — but the op it had started has run to completion by the
        # time stop() returns, and nothing of the server is left behind.
        tally, server, thread = tally_server
        client = SocketTransport("127.0.0.1", server.port, reply_timeout_s=5.0)
        outcome = []

        def call():
            try:
                client.bind("tally").nap(0.3)
            except NodeCrashedError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        try:
            caller.start()
            assert wait_until(server._domain.locked)
            thread.stop()
            assert tally.value == 1
            assert not server._domain.locked()
            assert not connection_threads(server)
            caller.join(timeout=5)
            assert not caller.is_alive()
            assert len(outcome) == 1
        finally:
            client.close()


class TestServerThread:
    def test_startup_failure_surfaces_in_start(self):
        with socket.create_server(("127.0.0.1", 0)) as taken:
            thread = ServerThread(
                SocketServer(port=taken.getsockname()[1])
            )
            with pytest.raises(OSError):
                thread.start()
        thread._thread.join(timeout=5)
        assert not thread._thread.is_alive()
        with pytest.raises(OSError):
            thread.stop()  # still what the thread died with

    def test_a_server_that_does_not_start_in_time_fails_start(self):
        released = threading.Event()

        class Stalled(SocketServer):
            async def start(self):
                while not released.is_set():
                    await asyncio.sleep(0.01)
                raise OSError("never bound")

        thread = ServerThread(Stalled())
        thread._started.wait = lambda timeout: False  # the wait ran out
        with pytest.raises(RuntimeError, match="failed to start in time"):
            thread.start()
        released.set()
        thread._thread.join(timeout=5)
        assert not thread._thread.is_alive()

    def test_accept_without_a_waiting_connection_is_a_no_op(self):
        # Readiness went stale: the peer gave up before accept().
        server = SocketServer()
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.setblocking(False)
            server._listener = listener
            server._accept()
        assert server._connections == {}

    def test_stop_reraises_what_the_serving_thread_died_with(self):
        class Dying(SocketServer):
            async def wait_closed(self):
                await super().wait_closed()
                raise RuntimeError("died serving")

        thread = ServerThread(Dying())
        thread.start()
        with pytest.raises(RuntimeError, match="died serving"):
            thread.stop()
        assert not thread._thread.is_alive()

    def test_port_zero_assigns_port(self):
        server = SocketServer({"c": Control(World())})
        thread = ServerThread(server)
        port = thread.start()
        try:
            assert port > 0
            client = SocketTransport("127.0.0.1", port)
            assert client.bind("c").ping() == "pong"
            client.close()
        finally:
            thread.stop()

    def test_unknown_export_and_private_ops_rejected(self):
        from repro.errors import InvocationError, NameNotFoundError

        server = SocketServer({"c": Control(World())})
        thread = ServerThread(server)
        port = thread.start()
        client = SocketTransport("127.0.0.1", port)
        try:
            with pytest.raises(NameNotFoundError):
                client.invoke("nope", "ping", ())
            with pytest.raises(InvocationError):
                client.invoke("c", "_world", ())
            with pytest.raises(InvocationError):
                client.invoke("c", "no_such_op", ())
        finally:
            client.close()
            thread.stop()
