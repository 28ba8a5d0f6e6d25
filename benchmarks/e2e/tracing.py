"""Spans and instruction counts, recorded from outside ``src/``.

Two traced runs follow the untraced measurement, in both processes:

* :class:`SpanRecorder` wraps, at ``install()`` and restores at
  ``uninstall()``, the public boundary of every layer — each
  ``@operation`` method of the classes in ``repro.fs``/``repro.vm``/
  ``repro.naming``/``repro.storage``, the public methods of ``Volume``,
  ``ImageBlockStore``, ``Posix`` and ``FileService``,
  ``ExportRegistry.call``, ``SocketTransport.invoke`` and
  ``wire.pack_frame``/``unpack_body``.  A span is (name, layer, start,
  end, parent, nbytes); spans stay in memory until the run ends.
  ``wire.read_message`` is not wrapped: it is a coroutine whose life is
  mostly waiting for the peer, which is what ``transport.gap`` reports.

* :class:`InstructionCounter` counts executed CPython bytecode
  instructions per source file (``sys.settrace`` + ``f_trace_opcodes``).

``time.perf_counter`` is CLOCK_MONOTONIC on Linux, one clock for both
processes, so client and server timestamps are comparable.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import pkgutil
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layers reported by the benchmark, in stack order.  Each is one of this
#: repo's modules (or packages); see :func:`layer_of_module`.
LAYERS = (
    "client", "asyncio", "ipc.transport", "ipc.wire", "serve",
    "unix.posixlike", "naming", "ipc.invocation", "fs.coherency",
    "fs.disk_layer", "fs.dfs", "fs.base", "vm", "storage.volume",
    "storage.block_device", "storage.blockstore", "sim", "other",
)

#: Layers with no public boundary to wrap from outside: instruction
#: counts only.
INSTR_ONLY_LAYERS = ("asyncio", "ipc.invocation", "sim", "other")

_EXACT_MODULES = {
    "repro.ipc.transport": "ipc.transport",
    "repro.ipc.wire": "ipc.wire",
    "repro.ipc.invocation": "ipc.invocation",
    "repro.serve": "serve",
    "repro.unix.posixlike": "unix.posixlike",
    "repro.fs.coherency": "fs.coherency",
    "repro.fs.disk_layer": "fs.disk_layer",
    "repro.fs.dfs": "fs.dfs",
    "repro.storage.block_device": "storage.block_device",
    "repro.storage.blockstore": "storage.blockstore",
}
_PREFIX_MODULES = (
    ("repro.fs", "fs.base"),
    ("repro.naming", "naming"),
    ("repro.vm", "vm"),
    ("repro.storage", "storage.volume"),
    ("repro.sim", "sim"),
    ("repro.world", "sim"),
    ("benchmarks.e2e", "client"),
    ("asyncio", "asyncio"),
    ("selectors", "asyncio"),
)


def layer_of_module(module: str) -> str:
    """The benchmark layer a dotted module name belongs to."""
    exact = _EXACT_MODULES.get(module)
    if exact is not None:
        return exact
    for prefix, layer in _PREFIX_MODULES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def layer_of_file(filename: str) -> str:
    """The layer of a code object's source file (instruction counts)."""
    path = filename.replace("\\", "/")
    if path.endswith(".py"):
        path = path[:-3]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    for root in ("/repro/", "/benchmarks/e2e/", "/asyncio/"):
        at = path.rfind(root)
        if at >= 0:
            return layer_of_module(path[at + 1:].replace("/", "."))
    if path.endswith("/selectors"):
        return "asyncio"
    return "other"


def _owner_layer(obj: object) -> str:
    """Files and directories of every file-system layer are generic
    classes from ``fs/base.py``; attribute them to the layer object that
    owns them, not to the module that defines the class."""
    owner = getattr(obj, "layer", obj)
    return layer_of_module(type(owner).__module__)


def _nbytes_last_arg(args: tuple, result: object) -> int:
    return len(args[-1])


def _nbytes_result(args: tuple, result: object) -> int:
    return len(result) if result is not None else 0


class SpanRecorder:
    """Process-wide span recording by patching public methods.

    One recorder is live at a time; the patches it installs are removed
    by :meth:`uninstall`, which every caller runs in a ``finally``.
    """

    def __init__(self) -> None:
        #: (name, layer, start, end, parent index or -1, nbytes)
        self.spans: List[Optional[tuple]] = []
        self._current = -1
        self._patched: List[Tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, layer: Optional[str],
              nbytes: Optional[Callable] = None) -> Callable:
        recorder = self
        spans = self.spans

        def span_wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = recorder._current
            recorder._current = index
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                recorder._current = parent
                spans[index] = (
                    name,
                    layer if layer is not None else _owner_layer(args[0]),
                    start, end, parent,
                    nbytes(args, result) if nbytes is not None else 0,
                )

        span_wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        if getattr(fn, "_is_operation", False):
            span_wrapper._is_operation = True  # type: ignore[attr-defined]
        return span_wrapper

    def span(self, name: str, layer: str):
        """Context manager for a span the driver records around its own
        code (the client-observed op)."""
        return _ManualSpan(self, name, layer)

    # --- patching ---------------------------------------------------------
    def _patch(self, owner: object, attr: str, name: str,
               layer: Optional[str], nbytes: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, layer, nbytes))

    def install(self) -> None:
        from repro.ipc import transport, wire
        from repro.serve import FileService
        from repro.storage.block_device import BlockDevice
        from repro.storage.blockstore import ImageBlockStore
        from repro.storage.volume import Volume
        from repro.unix.posixlike import Posix

        seen = set()
        for package in ("repro.fs", "repro.vm", "repro.naming", "repro.storage"):
            for cls in _classes_of_package(package):
                for attr, value in list(vars(cls).items()):
                    if getattr(value, "_is_operation", False):
                        seen.add((cls, attr))
                        by_owner = cls.__module__.startswith("repro.fs")
                        self._patch(
                            cls, attr, f"{cls.__name__}.{attr}",
                            None if by_owner else layer_of_module(cls.__module__),
                        )
        store_bytes = {
            "write": _nbytes_last_arg, "write_run": _nbytes_last_arg,
            "read": _nbytes_result, "read_run": _nbytes_result,
        }
        for cls in (Volume, BlockDevice, ImageBlockStore, Posix, FileService):
            layer = layer_of_module(cls.__module__)
            for attr, value in list(vars(cls).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if (cls, attr) in seen:
                    continue
                nbytes = store_bytes.get(attr) if cls is ImageBlockStore else None
                self._patch(cls, attr, f"{cls.__name__}.{attr}", layer, nbytes)
        self._patch(transport.ExportRegistry, "call", "ExportRegistry.call", "serve")
        self._patch(transport.SocketTransport, "invoke",
                    "SocketTransport.invoke", "ipc.transport")
        self._patch(wire, "pack_frame", "wire.pack_frame", "ipc.wire",
                    _nbytes_result)
        self._patch(wire, "unpack_body", "wire.unpack_body", "ipc.wire",
                    lambda args, result: len(args[0]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- results ----------------------------------------------------------
    def columns(self) -> dict:
        """Spans as wire-encodable columns."""
        done = [s for s in self.spans if s is not None]
        # A span still open when recording stopped (the control call that
        # stops it) leaves a None; parents are indices into self.spans,
        # so re-index onto the compacted list.
        remap = {}
        for old, span in enumerate(self.spans):
            if span is not None:
                remap[old] = len(remap)
        return {
            "name": [s[0] for s in done],
            "layer": [s[1] for s in done],
            "start": [s[2] for s in done],
            "end": [s[3] for s in done],
            "parent": [remap.get(s[4], -1) for s in done],
            "nbytes": [s[5] for s in done],
        }


class _ManualSpan:
    def __init__(self, recorder: SpanRecorder, name: str, layer: str) -> None:
        self._recorder = recorder
        self._name = name
        self._layer = layer

    def __enter__(self):
        recorder = self._recorder
        self._index = len(recorder.spans)
        recorder.spans.append(None)
        self._parent = recorder._current
        recorder._current = self._index
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = perf_counter()
        recorder = self._recorder
        recorder._current = self._parent
        recorder.spans[self._index] = (
            self._name, self._layer, self._start, end, self._parent, 0
        )


def _classes_of_package(package: str) -> Iterable[type]:
    pkg = importlib.import_module(package)
    names = [package] + [
        f"{package}.{info.name}" for info in pkgutil.iter_modules(pkg.__path__)
    ]
    for modname in names:
        module = importlib.import_module(modname)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == modname:
                yield value


# --- span arithmetic --------------------------------------------------------

Span = collections.namedtuple("Span", "name layer start end parent nbytes")


def spans_from_columns(columns: dict) -> List[Span]:
    return [
        Span(*row) for row in zip(
            columns["name"], columns["layer"], columns["start"],
            columns["end"], columns["parent"], columns["nbytes"],
        )
    ]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of each span: its duration minus the part of that
    interval its direct children cover.  Children of one parent never
    overlap (one thread, synchronous calls), so that part is the sum of
    their durations."""
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def roots_of(spans: Sequence[Span]) -> List[int]:
    return [i for i, span in enumerate(spans) if span.parent < 0]


def attribute(client: Sequence[Span], server: Sequence[Span],
              ops: int) -> dict:
    """Where the client-observed op time went.  Per op::

        op = client.self
           + [invoke start -> pack]        ipc.transport self (client glue)
           + pack_frame                    ipc.wire
           + [pack end -> server unpack]   transport.gap (request in flight)
           + unpack_body                   ipc.wire
           + ExportRegistry.call           serve + every layer under it
           + pack_frame                    ipc.wire
           + [server pack end -> unpack]   transport.gap (reply in flight)
           + unpack_body                   ipc.wire
           + [unpack -> invoke end]        ipc.transport self (client glue)
           + residual                      server time between its spans

    Returns per-layer ``self_us``/``calls`` totals, the gap, the residual
    and the op time, all summed over ``ops`` ops (µs).
    """
    layers = {layer: [0.0, 0] for layer in LAYERS}
    for spans in (client, server):
        for span, own in zip(spans, self_times(spans)):
            entry = layers[span.layer]
            entry[0] += own
            entry[1] += 1

    client_roots = [client[i] for i in roots_of(client)]
    children: Dict[int, List[Span]] = {}
    for span in client:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    invokes = [
        (index, span) for index, span in enumerate(client)
        if span.name == "SocketTransport.invoke"
    ]
    server_roots = [server[i] for i in roots_of(server)]
    calls = [
        i for i, span in enumerate(server_roots)
        if span.name == "ExportRegistry.call"
    ]
    if not (len(client_roots) == len(invokes) == len(calls) == ops):
        raise ValueError(
            f"span run: {ops} ops but {len(client_roots)} client ops, "
            f"{len(invokes)} invokes, {len(calls)} server calls"
        )
    op_time = gap = residual = 0.0
    for root, (invoke_index, invoke), call_at in zip(client_roots, invokes, calls):
        pack_c, unpack_c = children[invoke_index]
        unpack_s, call, pack_s = server_roots[call_at - 1:call_at + 2]
        flight = (unpack_s.start - pack_c.end) + (unpack_c.start - pack_s.end)
        glue = (pack_s.end - unpack_s.start) - sum(
            s.end - s.start for s in (unpack_s, call, pack_s)
        )
        op_time += root.end - root.start
        gap += flight
        residual += glue
        # The invoke span's own self time (computed on the client tree
        # alone) still holds everything that happened while it waited.
        layers["ipc.transport"][0] -= (pack_s.end - unpack_s.start) + flight
    # Server wire spans outside any op (the replies to spans_start and the
    # request of spans_stop) are not part of the account.
    in_ops = {at + step for at in calls for step in (-1, 0, 1)}
    for index, span in enumerate(server_roots):
        if index not in in_ops:
            layers["ipc.wire"][0] -= span.end - span.start
            layers["ipc.wire"][1] -= 1
    return {
        "layers": {k: (v[0] * 1e6, v[1]) for k, v in layers.items()},
        "gap_us": gap * 1e6, "residual_us": residual * 1e6,
        "op_us": op_time * 1e6,
    }


def span_counts(spans: Sequence[Span]) -> dict:
    """Counts at the wire and block-store boundaries."""
    out = {"encode_us": 0.0, "decode_us": 0.0, "store_reads": 0,
           "store_writes": 0, "store_flushes": 0, "store_bytes_written": 0}
    for span in spans:
        if span.name == "wire.pack_frame":
            out["encode_us"] += (span.end - span.start) * 1e6
        elif span.name == "wire.unpack_body":
            out["decode_us"] += (span.end - span.start) * 1e6
        elif span.name in ("ImageBlockStore.read", "ImageBlockStore.read_run"):
            out["store_reads"] += 1
        elif span.name in ("ImageBlockStore.write", "ImageBlockStore.write_run"):
            out["store_writes"] += 1
            out["store_bytes_written"] += span.nbytes
        elif span.name == "ImageBlockStore.flush":
            out["store_flushes"] += 1
    return out


def chrome_trace(processes: Dict[str, Sequence[Span]]) -> dict:
    """Chrome trace-event JSON (``chrome://tracing``, Perfetto): one
    process row per entry, complete ("X") events in microseconds."""
    events = []
    for pid, (label, spans) in enumerate(sorted(processes.items()), start=1):
        events.append({
            "ph": "M", "pid": pid, "tid": 1, "name": "process_name",
            "args": {"name": label},
        })
        for span in spans:
            events.append({
                "ph": "X", "pid": pid, "tid": 1, "name": span.name,
                "cat": span.layer, "ts": span.start * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "args": {"nbytes": span.nbytes} if span.nbytes else {},
            })
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(path: str, processes: Dict[str, Sequence[Span]]) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(processes), fh)


# --- instruction counts -----------------------------------------------------

class InstructionCounter:
    """Counts executed bytecode instructions per code object."""

    def __init__(self) -> None:
        self._counts: Dict[object, int] = collections.defaultdict(int)
        self._previous = None

    def start(self) -> None:
        counts = self._counts

        def local_trace(frame, event, arg):
            if event == "opcode":
                counts[frame.f_code] += 1
            return local_trace

        def global_trace(frame, event, arg):
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
            return local_trace

        self._previous = sys.gettrace()
        # The server starts counting from inside a served call: the
        # event-loop frames already on the stack get no "call" event, so
        # arm them by hand or the loop's own work goes uncounted.
        frame = sys._getframe(1)
        while frame is not None:
            frame.f_trace = local_trace
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
            frame = frame.f_back
        threading.settrace(global_trace)
        sys.settrace(global_trace)

    def stop(self) -> None:
        sys.settrace(self._previous)
        threading.settrace(self._previous)  # type: ignore[arg-type]
        frame = sys._getframe(1)
        while frame is not None:
            frame.f_trace = None
            frame.f_trace_opcodes = False
            frame.f_trace_lines = True
            frame = frame.f_back

    def by_file(self) -> Dict[str, int]:
        totals: Dict[str, int] = collections.defaultdict(int)
        for code, count in self._counts.items():
            totals[code.co_filename] += count  # type: ignore[attr-defined]
        return dict(totals)


def instructions_by_layer(*by_file: Dict[str, int]) -> Dict[str, int]:
    totals = {layer: 0 for layer in LAYERS}
    for counts in by_file:
        for filename, count in counts.items():
            totals[layer_of_file(filename)] += count
    return totals
