"""The client process: spawn servers, drive one workload, measure.

One run of one workload is::

    set-up (spawn, mkfs, populate, save, [restart cold], warm-up)  x N
    untraced timed phase        -> ops_per_s_norm, client.*, exact counts
    [trace 1] span run          -> per-layer self time, gap, residual
    instruction run             -> py_instr_per_op, L.instr_per_op
    [trace 1, meta_open_stat] stacking-placement comparison
    read-back of everything written
    [trace 0] kill -9, reopen, fsck, read back -> durable_share

Closed loop, one connection, one client thread: each op waits for its
reply, so client and server never have work at the same time.  Both are
pinned to the same CPU: on the two-vCPU sandbox, waking an idle second
vCPU costs anything from 20 to 120 us per hop depending on what the host
is doing, which made the same code read 3.4k to 5.6k ops/s; on one CPU
the op time is the CPU work of both processes plus two context switches
and repeats three times better (README, "Noise").
"""

from __future__ import annotations

import ctypes
import dataclasses
import itertools
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.ipc.transport import SocketTransport
from repro.serve import FileService

from benchmarks.e2e import estimators, tracing
from benchmarks.e2e.server import READY_PREFIX
from benchmarks.e2e.workloads import Workload

ROOT = Path(__file__).resolve().parents[2]
READY_TIMEOUT_S = 30.0
#: An untraced run sets up again and again — at least 3 times, then until
#: this many seconds have gone into it, at most 9 times — and ``setup_s``
#: is the median: one set-up is mostly process start and reads 15-30 %
#: apart from one to the next.
SETUP_BUDGET_S = 8.0
#: Paired batches per placement in the stacking comparison.
STACK_PAIRS = 24


@dataclasses.dataclass
class Sizes:
    """How much work each phase does.  Constants of the benchmark except
    for ``seconds`` (the driver's ``--seconds``) and ``--smoke``."""

    seconds: float
    smoke: bool = False

    @property
    def stack_pairs(self) -> int:
        return 2 if self.smoke else STACK_PAIRS

    def rounds(self, workload: Workload, phase: str) -> int:
        full = getattr(workload, f"{phase}_rounds")
        if not self.smoke:
            return full
        return max(1, min(full, workload.batch_rounds) // 2)


def steady_malloc() -> None:
    """Fix glibc's mmap and trim thresholds in this (the client) process.

    asyncio's socket transport asks for a 256 KiB buffer on every
    ``recv``.  By default glibc takes a block of that size from ``mmap``
    until the process has once freed a larger one, and from the heap
    after: in the first state every ``recv`` is an ``mmap``, a page fault
    and an ``munmap``.  The ops and the echo kernel both receive through
    asyncio, and which of the two paid depended on what the process had
    allocated before — ``PYTHONPATH`` being set or not moved
    ``meta_open_stat`` by 25 % (README, "Noise").  With the thresholds
    fixed, such blocks always come from the heap and the heap is never
    trimmed, so after warm-up the client takes no page faults at all.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return  # not glibc
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at its maximum
    mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD


class BenchmarkError(RuntimeError):
    """The benchmark could not run (not: the program gave wrong output)."""


class Session:
    """Owns every child process and the scratch directory of one command;
    leaving the ``with`` block kills the former and removes the latter on
    every exit path."""

    def __init__(self) -> None:
        self._parent = ROOT / ".bench_e2e"
        self._servers: List["ServerProcess"] = []
        self.workdir: Optional[Path] = None
        self.cpu: Optional[int] = None
        self.reference: Optional[estimators.Reference] = None

    def __enter__(self) -> "Session":
        self._parent.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="run-", dir=self._parent))
        if hasattr(os, "sched_setaffinity"):
            # The highest-numbered allowed CPU: CPU 0 takes most interrupts.
            self.cpu = max(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {self.cpu})
        steady_malloc()
        self.reference = estimators.Reference()
        return self

    def __exit__(self, *exc_info) -> None:
        for server in self._servers:
            server.kill()
        if self.reference is not None:
            self.reference.close()
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self._parent.rmdir()
        except OSError:
            pass  # another run is using it

    def image(self, label: str) -> str:
        return str(self.workdir / f"{label}.img")

    def launch(self, image: str, stack: str, **options) -> "ServerProcess":
        server = ServerProcess(image, stack, self.cpu, **options)
        self._servers.append(server)
        server.wait_ready()
        return server


class ServerProcess:
    """One server OS process plus the client's connection to it."""

    def __init__(self, image: str, stack: str, cpu: Optional[int],
                 placement: str = "two_domains", cache: bool = True,
                 fresh: bool = True) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        # Instruction counts must not depend on this run's str hashes.
        env["PYTHONHASHSEED"] = "0"
        self.image = image
        self.transport: Optional[SocketTransport] = None
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "benchmarks.e2e.server",
             "--image", image, "--stack", stack, "--placement", placement,
             "--cache", str(int(cache)), "--fresh", str(int(fresh))],
            stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
        )
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})

    def wait_ready(self) -> None:
        stdout = self.proc.stdout
        ready, _, _ = select.select([stdout], [], [], READY_TIMEOUT_S)
        line = stdout.readline().decode().strip() if ready else ""
        if not line.startswith(READY_PREFIX):
            self.kill()
            raise BenchmarkError(f"server did not come up: {line!r}")
        port = int(line.rsplit("port=", 1)[1])
        self.transport = SocketTransport(
            "127.0.0.1", port, src="client", dst="server"
        )
        self.fs = self.transport.bind("fs", idempotent=FileService.IDEMPOTENT_OPS)
        self.control = self.transport.bind("control")

    # --- observation from outside ------------------------------------------
    def rss_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchmarkError("no VmHWM in /proc status")

    def cpu_us(self) -> float:
        with open(f"/proc/{self.proc.pid}/schedstat") as fh:
            return int(fh.read().split()[0]) / 1000.0

    def image_allocated_bytes(self) -> int:
        return os.stat(self.image).st_blocks * 512

    # --- lifecycle ---------------------------------------------------------
    def stop(self) -> None:
        """Orderly shutdown (the image is closed by the exiting process)."""
        try:
            self.control.shutdown()
            self.proc.wait(timeout=10)
        except Exception:
            pass  # kill() below is the fallback on any failure
        self.kill()

    def kill(self) -> None:
        if self.transport is not None:
            self.transport.close()
            self.transport = None
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


# --- phases -----------------------------------------------------------------

def _rng(seed: int, phase: int) -> random.Random:
    return random.Random(seed * 1_000_003 + phase)


MEASURE, WARM = 1, 2


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if count and len(self.errors) < 5:
            self.errors.append(what)


def run_ops(workload: Workload, fs, ops: Sequence[tuple], tally: Tally,
            around: Optional[Callable] = None) -> List[float]:
    """Perform ``ops`` one after another; returns the ``len(ops) + 1``
    timestamps that bound them.  ``around`` wraps each op in a span."""
    step = workload.step
    stamps = [perf_counter()]
    for op in ops:
        try:
            if around is None:
                ok = step(fs, op)
            else:
                with around():
                    ok = step(fs, op)
        except Exception as exc:  # a failed op is counted, the run goes on
            ok = None
            tally.fail(f"{op}: {type(exc).__name__}: {exc}")
        stamps.append(perf_counter())
        if ok is False:
            tally.fail(f"{op}: wrong result")
    tally.attempted += len(ops)
    return stamps


def set_up(session: Session, cls, seed: int, sizes: Sizes, label: str,
           tally: Tally, placement: str = "two_domains"):
    """Spawn -> populate -> save -> [restart cold] -> warm-up.  Returns
    ``(server, workload, seconds)``."""
    start = perf_counter()
    workload = cls(seed, small=sizes.smoke)
    image = session.image(label)
    server = session.launch(image, stack=workload.stack, placement=placement)
    workload.populate(server.fs)
    tally.fail("populate read-back", workload.touch_working_set(server.fs))
    server.control.save()
    workload.saved()
    if workload.cold:
        server.stop()
        server = session.launch(
            image, stack=workload.stack, placement=placement,
            cache=False, fresh=False,
        )
    workload.attach(server.fs)
    tally.fail("warm-up read", workload.touch_working_set(server.fs))
    warm = workload.round_ops * sizes.rounds(workload, "warm")
    run_ops(workload, server.fs,
            list(itertools.islice(workload.sequence(_rng(seed, WARM)), warm)),
            tally)
    return server, workload, perf_counter() - start


@dataclasses.dataclass
class Timed:
    """What the untraced timed phase observed."""

    costs: List[float]
    ref_loop_seconds: List[float]
    latencies: Dict[str, List[float]]
    ops: int
    client_cpu_s: float
    server_cpu_us: float
    exact_ops: int
    exact: dict  # server snapshot delta over the first exact_ops ops
    exact_wire: Dict[str, int]
    exact_payload_bytes: int
    exact_reads: int  # pread + read_file ops in the exact segment
    resident_pages: int


def _diff(after, before):
    if isinstance(after, dict):
        return {k: _diff(v, before.get(k, 0) if isinstance(before, dict) else 0)
                for k, v in after.items()}
    return after - before


def _wire_counts(transport: SocketTransport) -> Dict[str, int]:
    return {"frames": transport.messages, "bytes_out": transport.bytes_out,
            "bytes_in": transport.bytes_in}


def timed_phase(server: ServerProcess, workload: Workload, seed: int,
                sizes: Sizes, tally: Tally,
                reference: estimators.Reference) -> Timed:
    """Batches of ops bracketed by the reference, for ``sizes.seconds``
    and at least the fixed-count exact segment."""
    fs = server.fs
    batch_ops = workload.round_ops * workload.batch_rounds
    exact_batches = -(-sizes.rounds(workload, "exact") // workload.batch_rounds)
    sequence = workload.sequence(_rng(seed, MEASURE))
    latencies: Dict[str, List[float]] = {}
    seconds: List[float] = []
    slow: List[float] = []
    exact = exact_wire = None
    payload = reads = resident = 0

    snap0 = server.control.snapshot()
    wire0 = _wire_counts(server.transport)
    cpu0, server_cpu0 = process_time(), server.cpu_us()
    loops0, spent0 = len(reference.loop_seconds), reference.spent_seconds
    deadline = perf_counter() + sizes.seconds
    slow.append(reference.slowness())
    batches = 0
    # The first quartile of the batch costs needs two batches.
    while perf_counter() < deadline or batches < max(2, exact_batches):
        ops = list(itertools.islice(sequence, batch_ops))
        stamps = run_ops(workload, fs, ops, tally)
        slow.append(reference.slowness())
        seconds.append(stamps[-1] - stamps[0])
        for op, begin, end in zip(ops, stamps, stamps[1:]):
            latencies.setdefault(op[0], []).append(end - begin)
        batches += 1
        if batches <= exact_batches:
            payload += sum(workload.payload_bytes(op) for op in ops)
            reads += sum(op[0] in ("pread", "read_file") for op in ops)
        if batches == exact_batches:
            exact_wire = _diff(_wire_counts(server.transport), wire0)
            snap = server.control.snapshot()
            resident = snap["resident_pages"]
            exact = _diff(snap, snap0)
    return Timed(
        costs=estimators.normalised_costs(
            seconds, [batch_ops] * batches, slow[:-1], slow[1:]
        ),
        ref_loop_seconds=reference.loop_seconds[loops0:],
        latencies=latencies, ops=batches * batch_ops,
        client_cpu_s=process_time() - cpu0 - (reference.spent_seconds - spent0),
        server_cpu_us=server.cpu_us() - server_cpu0,
        exact_ops=exact_batches * batch_ops, exact=exact,
        exact_wire=exact_wire,
        exact_payload_bytes=payload, exact_reads=reads,
        resident_pages=resident,
    )


def instruction_run(server: ServerProcess, workload: Workload, seed: int,
                    sizes: Sizes, tally: Tally) -> Tuple[Dict[str, int], int]:
    """A fixed prefix of the op sequence with every bytecode instruction
    counted in both processes; ``(instructions by layer, ops)``."""
    count = workload.round_ops * sizes.rounds(workload, "instr")
    ops = list(itertools.islice(workload.sequence(_rng(seed, MEASURE)), count))
    counter = tracing.InstructionCounter()
    server.control.instr_start()
    counter.start()
    try:
        run_ops(workload, server.fs, ops, tally)
    finally:
        counter.stop()
    server_files = server.control.instr_stop()
    return tracing.instructions_by_layer(counter.by_file(), server_files), count


def span_run(server: ServerProcess, workload: Workload, seed: int,
             sizes: Sizes, tally: Tally, reference: estimators.Reference):
    """A fixed prefix of the op sequence with spans recorded in both
    processes; ``(client spans, server spans, ops, slowness, user bytes
    written)`` where the slowness is the reference's mean around the
    run."""
    count = workload.round_ops * sizes.rounds(workload, "span")
    ops = list(itertools.islice(workload.sequence(_rng(seed, MEASURE)), count))
    recorder = tracing.SpanRecorder()
    slow_before = reference.slowness()
    server.control.spans_start()
    recorder.install()
    try:
        run_ops(workload, server.fs, ops, tally,
                around=lambda: recorder.span("client.op", "client"))
    finally:
        recorder.uninstall()
    server_spans = tracing.spans_from_columns(server.control.spans_stop())
    slow = (slow_before + reference.slowness()) / 2.0
    client_spans = tracing.spans_from_columns(recorder.columns())
    written = sum(workload.payload_bytes(op) for op in ops
                  if op[0] in ("pwrite", "write_file"))
    return client_spans, server_spans, count, slow, written


def durability_probe(session: Session, server: ServerProcess,
                     workload: Workload) -> Tuple[float, int, int, List[str]]:
    """SIGKILL the server, reopen the image in a fresh one, fsck with
    repair, read back: ``(share, acknowledged, intact, fsck problems)``."""
    server.kill()
    try:
        fresh = session.launch(server.image, stack=workload.stack, fresh=False)
        problems = list(fresh.control.fsck(True))
    except Exception as exc:  # an image that cannot be mounted lost it all
        return 0.0, 0, 0, [f"reopen failed: {type(exc).__name__}: {exc}"]
    acknowledged, intact = workload.durable_check(fresh.fs)
    fresh.kill()
    share = intact / acknowledged if acknowledged else 1.0
    return share, acknowledged, intact, problems


def stacking_comparison(session: Session, cls, seed: int, sizes: Sizes,
                        tally: Tally):
    """Wall and virtual cost of the two stacked placements relative to
    the monolithic one, in paired batches so machine speed cancels.  All
    three servers are set up afresh, so none has a history the others
    lack."""
    placements = {}
    for placement in ("not_stacked", "one_domain", "two_domains"):
        server, workload, _ = set_up(
            session, cls, seed, sizes, placement, tally, placement=placement
        )
        placements[placement] = (server, workload)
    batch_ops = cls.round_ops * cls.batch_rounds
    costs: Dict[str, List[float]] = {name: [] for name in placements}
    virt: Dict[str, float] = {}
    sequences = {
        name: workload.sequence(_rng(seed, MEASURE))
        for name, (_server, workload) in placements.items()
    }
    before = {name: server.control.snapshot()["virt_us"]
              for name, (server, _w) in placements.items()}
    order = list(placements)
    for pair in range(sizes.stack_pairs):
        # Rotate who goes first so a drift inside a pair favours nobody.
        for name in order[pair % 3:] + order[:pair % 3]:
            server, workload = placements[name]
            ops = list(itertools.islice(sequences[name], batch_ops))
            slow_before = session.reference.slowness()
            stamps = run_ops(workload, server.fs, ops, tally)
            costs[name].append(estimators.normalised_seconds(
                stamps[-1] - stamps[0], slow_before,
                session.reference.slowness(),
            ))
    total_ops = sizes.stack_pairs * batch_ops
    for name, (server, _w) in placements.items():
        virt[name] = (server.control.snapshot()["virt_us"] - before[name]) / total_ops
    for server, _w in placements.values():
        server.kill()
    base = costs["not_stacked"]
    return {
        name: (
            statistics.median(c / b for c, b in zip(costs[name], base)),
            virt[name] / virt["not_stacked"],
        )
        for name in ("one_domain", "two_domains")
    }


def ping_seconds(server: ServerProcess, count: int) -> List[float]:
    """Round trips of the transport's own ``*ping*`` op: no export is
    called, so this is the floor under every op."""
    send = server.transport.send
    stamps = [perf_counter()]
    for _ in range(count):
        send("client", "server", 0)
        stamps.append(perf_counter())
    return [end - begin for begin, end in zip(stamps, stamps[1:])]


# --- one run ------------------------------------------------------------------

@dataclasses.dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    tally: Tally
    setup_seconds: List[float]
    timed: Timed
    rss_mb: float
    user_bytes_stored: int
    #: filled in as the later phases complete
    instr_by_layer: Dict[str, int] = dataclasses.field(default_factory=dict)
    instr_ops: int = 0
    image_allocated_bytes: int = 0
    retries: int = 0
    reconnects: int = 0
    #: --trace 0 only
    durable_share: Optional[float] = None
    durable_bytes: Tuple[int, int] = (0, 0)
    fsck_problems: List[str] = dataclasses.field(default_factory=list)
    #: --trace 1 only
    spans: Optional[tuple] = None
    ping_seconds: List[float] = dataclasses.field(default_factory=list)
    stacking: Dict[str, Tuple[float, float]] = dataclasses.field(default_factory=dict)


def run_workload(session: Session, cls, seed: int, sizes: Sizes,
                 trace: bool) -> RunResult:
    tally = Tally()
    reference = session.reference
    setups: List[float] = []
    server = workload = None
    repeat = not trace and not sizes.smoke
    while not setups or (repeat and len(setups) < 9 and (
        len(setups) < 3 or sum(setups) < SETUP_BUDGET_S
    )):
        if server is not None:
            server.kill()
            os.unlink(server.image)
        slow_before = reference.steady_slowness()
        server, workload, seconds = set_up(
            session, cls, seed, sizes, f"main{len(setups)}", tally
        )
        setups.append(estimators.normalised_seconds(
            seconds, slow_before, reference.steady_slowness()
        ))
    if trace:
        # Half the time untraced (client.*, exact counts, the base of
        # trace.overhead_ratio); the traced runs take the other half.
        sizes = dataclasses.replace(sizes, seconds=sizes.seconds / 2.0)
    timed = timed_phase(server, workload, seed, sizes, tally, reference)
    result = RunResult(
        workload=cls.name, seed=seed, trace=trace, tally=tally,
        setup_seconds=setups, timed=timed, rss_mb=server.rss_hwm_mb(),
        user_bytes_stored=workload.stored_bytes(),
    )
    if trace:
        result.ping_seconds = ping_seconds(server, 50 if sizes.smoke else 500)
        result.spans = span_run(server, workload, seed, sizes, tally, reference)
    result.instr_by_layer, result.instr_ops = instruction_run(
        server, workload, seed, sizes, tally
    )
    if trace and cls.name == "meta_open_stat":
        result.stacking = stacking_comparison(session, cls, seed, sizes, tally)
    calls, failed = workload.final_check(server.fs)
    tally.attempted += calls
    tally.fail("final read-back: wrong bytes", failed)
    result.image_allocated_bytes = server.image_allocated_bytes()
    result.retries = server.transport.retries
    result.reconnects = server.transport.reconnects
    if trace:
        server.kill()
    else:
        (result.durable_share, acknowledged, intact,
         result.fsck_problems) = durability_probe(session, server, workload)
        result.durable_bytes = (acknowledged, intact)
    return result
