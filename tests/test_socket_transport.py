"""The real socket transport: framing, round trips, compound batches,
failure mapping, retries, and parity with the served objects called in
process."""

import socket
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
from repro.ipc import wire
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

    def test_garbage_request_drops_only_that_connection(self, served):
        good = served.client()
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


class TestServerThread:
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
