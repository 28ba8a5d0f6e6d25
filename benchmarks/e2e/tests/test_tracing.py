"""Span arithmetic, layer attribution, patch/restore, instruction counts."""

import json

import pytest

from benchmarks.e2e import tracing
from benchmarks.e2e.tracing import Span, attribute


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span("root", "a", 0.0, 10.0, -1, 0),
        Span("child1", "b", 1.0, 4.0, 0, 0),
        Span("grandchild", "c", 2.0, 3.0, 1, 0),
        Span("child2", "b", 5.0, 9.0, 0, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == 10.0  # nothing counted twice
    assert tracing.roots_of(spans) == [0]


def _one_op(t):
    """Client and server spans of one op starting at ``t`` (seconds)."""
    client = [
        Span("client.op", "client", t, t + 100, -1, 0),
        Span("SocketTransport.invoke", "ipc.transport", t + 5, t + 95, 0, 0),
        Span("wire.pack_frame", "ipc.wire", t + 10, t + 15, 1, 40),
        Span("wire.unpack_body", "ipc.wire", t + 80, t + 90, 1, 4000),
    ]
    server = [
        Span("wire.unpack_body", "ipc.wire", t + 30, t + 35, -1, 40),
        Span("ExportRegistry.call", "serve", t + 36, t + 60, -1, 0),
        Span("FileService.pread", "serve", t + 37, t + 59, 1, 0),
        Span("Posix.pread", "unix.posixlike", t + 38, t + 58, 2, 0),
        Span("wire.pack_frame", "ipc.wire", t + 62, t + 70, -1, 4000),
    ]
    return client, server


def test_attribution_accounts_for_the_whole_op():
    client, server = [], []
    # The server also saw the reply to spans_start and the spans_stop request.
    server.append(Span("wire.pack_frame", "ipc.wire", 0.0, 1.0, -1, 10))
    for op in range(3):
        c, s = _one_op(1000.0 * (op + 1))
        base_c, base_s = len(client), len(server)
        client += [x._replace(parent=x.parent + base_c if x.parent >= 0 else -1) for x in c]
        server += [x._replace(parent=x.parent + base_s if x.parent >= 0 else -1) for x in s]
    server.append(Span("wire.unpack_body", "ipc.wire", 9000.0, 9001.0, -1, 10))

    account = attribute(client, server, 3)
    per_op = {k: v[0] / 3e6 for k, v in account["layers"].items()}
    assert per_op["client"] == pytest.approx(10.0)            # 100 - 90
    assert per_op["ipc.transport"] == pytest.approx(10.0)     # 5 before pack, 5 after unpack
    assert per_op["ipc.wire"] == pytest.approx(5 + 10 + 5 + 8)
    assert per_op["serve"] == pytest.approx(2 + 2)
    assert per_op["unix.posixlike"] == pytest.approx(20.0)
    assert account["gap_us"] / 3e6 == pytest.approx(15 + 10)  # in flight both ways
    assert account["residual_us"] / 3e6 == pytest.approx(1 + 2)  # server glue
    total = sum(per_op.values()) + (account["gap_us"] + account["residual_us"]) / 3e6
    assert total == pytest.approx(account["op_us"] / 3e6) == pytest.approx(100.0)
    assert account["layers"]["ipc.wire"][1] == 12  # the two stray frames are dropped


def test_layers_of_modules_and_files():
    assert tracing.layer_of_module("repro.fs.coherency") == "fs.coherency"
    assert tracing.layer_of_module("repro.fs.base") == "fs.base"
    assert tracing.layer_of_module("repro.fs.holders") == "fs.base"
    assert tracing.layer_of_module("repro.storage.volume") == "storage.volume"
    assert tracing.layer_of_module("repro.storage.allocator") == "storage.volume"
    assert tracing.layer_of_module("repro.vm.vmm") == "vm"
    assert tracing.layer_of_module("json") == "other"
    assert tracing.layer_of_file("/x/src/repro/ipc/wire.py") == "ipc.wire"
    assert tracing.layer_of_file("/x/src/repro/sim/clock.py") == "sim"
    assert tracing.layer_of_file("/usr/lib/python3.11/asyncio/streams.py") == "asyncio"
    assert tracing.layer_of_file("/usr/lib/python3.11/selectors.py") == "asyncio"
    assert tracing.layer_of_file("/x/benchmarks/e2e/workloads.py") == "client"
    assert tracing.layer_of_file("/usr/lib/python3.11/struct.py") == "other"
    for layer in set(tracing._EXACT_MODULES.values()) | {l for _, l in tracing._PREFIX_MODULES}:
        assert layer in tracing.LAYERS


def _small_stack():
    from repro.fs import create_sfs
    from repro.serve import FileService
    from repro.storage import BlockDevice
    from repro.unix.posixlike import Posix
    from repro.world import World

    world = World()
    node = world.create_node("n")
    sfs = create_sfs(node, BlockDevice(node.nucleus, "sd0", 512))
    return FileService(Posix(sfs.top, world.create_user_domain(node)))


def test_recorder_attributes_generic_classes_to_the_owning_layer_and_restores():
    from repro.fs.base import LayerFile
    from repro.unix.posixlike import Posix

    fs = _small_stack()
    before = (LayerFile.__dict__["read"], Posix.__dict__["pread"])
    recorder = tracing.SpanRecorder()
    recorder.install()
    try:
        assert LayerFile.__dict__["read"] is not before[0]
        fs.write_file("a", b"x" * 5000)
        assert fs.read_file("a") == b"x" * 5000
    finally:
        recorder.uninstall()
    assert (LayerFile.__dict__["read"], Posix.__dict__["pread"]) == before

    spans = tracing.spans_from_columns(recorder.columns())
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, set()).add(span.layer)
    assert by_name["FileService.read_file"] == {"serve"}
    assert by_name["Posix.pread"] == {"unix.posixlike"}
    # LayerFile is defined in fs/base.py but these files belong to the
    # coherency layer.
    assert by_name["LayerFile.read"] == {"fs.coherency"}
    assert "fs.disk_layer" in {s.layer for s in spans}
    assert "storage.block_device" in {s.layer for s in spans}
    assert all(s.end >= s.start for s in spans)
    assert all(s.parent < i for i, s in enumerate(spans))
    count = len(recorder.spans)
    fs.read_file("a")
    assert len(recorder.spans) == count  # nothing is recorded after uninstall


def test_chrome_trace_is_loadable_json(tmp_path):
    client, server = _one_op(1.0)
    path = tmp_path / "trace.json"
    tracing.write_chrome_trace(str(path), {"client": client, "server": server})
    events = json.loads(path.read_text())["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert len(complete) == len(client) + len(server)
    assert {e["pid"] for e in complete} == {1, 2}
    assert all(e["dur"] >= 0 for e in complete)


def test_instruction_counter_counts_and_stops():
    def work(n):
        total = 0
        for i in range(n):
            total += i
        return total

    counter = tracing.InstructionCounter()
    counter.start()
    try:
        work(100)
    finally:
        counter.stop()
    small = sum(counter.by_file().values())
    assert small > 300
    work(1000)
    assert sum(counter.by_file().values()) == small  # stopped means stopped

    again = tracing.InstructionCounter()
    again.start()
    try:
        work(100)
    finally:
        again.stop()
    # The same code executes the same number of instructions.
    mine = {k: v for k, v in again.by_file().items() if k == __file__}
    assert mine == {k: v for k, v in counter.by_file().items() if k == __file__}
    # This file lives under benchmarks/e2e/, the client layer.
    assert tracing.instructions_by_layer(counter.by_file())["client"] >= small - 50
