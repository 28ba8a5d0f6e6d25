"""Line census: the executable lines of ``src/repro`` that nothing runs.

ROADMAP item 10: every line of ``src/repro`` is run by a test, an
example or a benchmark, or it goes.  This script runs the tier-1 suite
(``tests/``), the six in-process examples and ``python -m repro.report
--quick`` (all three run by CI's ``test`` job) in one process under a
``sys.settrace`` line tracer (``threading.settrace`` too, so the socket
server's connection threads count), then lists, per module, the lines
that carry bytecode and never ran.  There is no ``coverage`` here and
Python 3.11 has no ``sys.monitoring``.

A tracer armed once before the suite loses lines part-way through it,
so the tracer is also a plugin of the suite: its ``pytest_runtest_call``
hook wrapper arms it again before every test, and it fixes what
hypothesis draws, so two runs list the same lines.  What counts as
executable is what the compiler gives a line number (``co_lines``), so
a multi-line statement may be attributed to its continuation lines; the
body of an ``if TYPE_CHECKING:`` does not count.  Each module's lines
are read before the suite starts, so a module edited while it runs is
compared with the text that ran.  The run takes about three times as
long as the suite alone.

The list is committed as ``benchmarks/CENSUS.json``.  A line is known by
its module and its text, not its number, so an edit above it does not
move it.  The check fails when a line joins the list, and also when one
has left it (the list is a ratchet: commit the shorter one).  The lines
were counted on Python 3.11; another version attributes some lines
differently, so CI runs this on 3.11.  The benchmark smokes are not
run, so ``bench/`` lines that only they reach are listed.
``repro.serve`` runs as ``__main__`` on a thread of the suite
(``tests/test_socket_transport.py::TestServeMain``).

ROADMAP item 18 asks the next question: which lines only tests reach.
A second, fresh tracer in a fresh interpreter runs the entry points
alone — the six examples, the quick report, the ``--smoke`` run of
each record emitter in ``SMOKES`` and one client session against
``repro.serve``'s ``FileService`` over a socket (:func:`served_session`)
— and ``CENSUS.json`` records, per module, how many lines the suite ran
that none of them reaches (``test_only``).  That table is a ratchet too:
the check fails when a module's count differs from the committed one,
or when a module joins or leaves the table (commit a fall with
``--update``).

Usage (from the repo root)::

    PYTHONPATH=src:. python benchmarks/check_census.py [--update]
"""

import argparse
import ast
import collections
import contextlib
import io
import json
import pathlib
import runpy
import subprocess
import sys
import tempfile
import threading
import types
import warnings

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
ROOT = REPO / "src" / "repro"
COMMITTED = pathlib.Path(__file__).resolve().parent / "CENSUS.json"
EXAMPLES = ("compression_stack", "distributed_sharing", "encrypted_mirror",
            "performance_tuning", "quickstart", "watchdog_interposition")
#: The record emitters whose ``--smoke`` run counts as an entry point
#: for ``test_only`` (``bench_<name>.py``).
SMOKES = ("fault_recovery", "hotpath", "ipc_compound", "macro_workload",
          "socket_transport", "volume_persist")


class LineTracer:
    """Which lines of ``src/repro`` ran: a ``sys.settrace`` tracer that
    is also a pytest plugin, so it can arm itself before every test."""

    def __init__(self) -> None:
        #: Module (relative to ``src``) -> line numbers that ran.
        self.ran = collections.defaultdict(set)
        #: File name a code object carries -> its module, or None
        #: outside ``src/repro``.
        self._modules: dict = {}
        #: Code object -> its local tracer, or None once it needs none.
        self._tracers: dict = {}

    def _module_of(self, filename: str):
        try:
            return self._modules[filename]
        except KeyError:
            path = pathlib.Path(filename).resolve()
            module = (str(path.relative_to(ROOT.parent))
                      if path.is_relative_to(ROOT) else None)
            self._modules[filename] = module
            return module

    def trace(self, frame, event, arg):
        """The global tracer: a local tracer for ``src/repro`` code,
        which drops out once every line of its code object has run."""
        code = frame.f_code
        tracers = self._tracers
        try:
            return tracers[code]
        except KeyError:
            pass
        module = self._module_of(code.co_filename)
        if module is None:
            tracers[code] = None
            return None
        ran = self.ran[module]
        todo = {line for _, _, line in code.co_lines() if line} - ran

        def local(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                ran.add(line)
                todo.discard(line)
                if not todo:
                    tracers[code] = None  # later calls run untraced
            return local

        tracers[code] = local
        return local

    def arm(self) -> None:
        threading.settrace(self.trace)
        sys.settrace(self.trace)

    @staticmethod
    def disarm() -> None:
        sys.settrace(None)
        threading.settrace(None)

    @pytest.hookimpl(tryfirst=True)
    def pytest_configure(self, config):
        """The ``census`` profile, registered before hypothesis's own hook
        loads it: the same drawn cases on every run and host, and none
        replayed from a local example database, or a line only some
        draws reach would join and leave the list from run to run."""
        import hypothesis

        hypothesis.settings.register_profile(
            "census", derandomize=True, database=None
        )

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(self, item):
        self.arm()
        yield


def executable(path: pathlib.Path) -> dict:
    """``{line number: stripped text}`` of every line of one module that
    carries bytecode, but for the body of an ``if TYPE_CHECKING:``
    (imports for annotations, which never run)."""
    source = path.read_text()
    text = source.splitlines()
    stack = [compile(source, str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts
                     if isinstance(const, types.CodeType))
    for node in ast.walk(ast.parse(source)):
        test = getattr(node, "test", None)
        if isinstance(node, ast.If) and "TYPE_CHECKING" in (
            getattr(test, "id", None), getattr(test, "attr", None)
        ):
            lines.difference_update(
                range(node.body[0].lineno, node.body[-1].end_lineno + 1)
            )
    return {line: text[line - 1].strip() for line in sorted(lines)}


def _run_main(tracer: LineTracer, argv: list, run) -> None:
    """Run one entry point as ``__main__`` with ``argv`` under
    ``tracer``, its output swallowed; a non-zero exit fails the census."""
    tracer.arm()
    saved, sys.argv = sys.argv, argv
    try:
        with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            # The suite imported repro.report already; run it afresh.
            warnings.simplefilter("ignore", RuntimeWarning)
            run()
    except SystemExit as exc:
        if exc.code:
            raise SystemExit(f"{' '.join(argv)} failed (exit {exc.code})")
    finally:
        sys.argv = saved


def run_entry_points(tracer: LineTracer, smokes=()) -> None:
    """The six in-process examples, ``repro.report --quick`` and the
    ``--smoke`` run of each emitter named in ``smokes``, under
    ``tracer``."""
    for name in EXAMPLES:
        path = str(REPO / "examples" / f"{name}.py")
        _run_main(tracer, [path],
                  lambda: runpy.run_path(path, run_name="__main__"))
    _run_main(tracer, ["repro.report", "--quick"],
              lambda: runpy.run_module("repro.report", run_name="__main__"))
    for name in smokes:
        path = str(REPO / "benchmarks" / f"bench_{name}.py")
        _run_main(tracer, [path, "--smoke"],
                  lambda: runpy.run_path(path, run_name="__main__"))


def served_session(tracer: LineTracer) -> None:
    """One client session against ``repro.serve``'s ``FileService``,
    served on a thread of this interpreter: open, scattered ``pwrite``s,
    ``fsync``, ``pread`` and close over a ``SocketTransport``.  The
    tracer is armed (``threading.settrace`` too) before the server
    thread starts, so its connection loop and the stack under it
    count."""
    from repro.ipc.transport import ServerThread, SocketTransport
    from repro.serve import Control, build_service
    from repro.unix.posixlike import O_CREAT, O_RDWR

    tracer.arm()
    world, node, service = build_service("sfs")
    server = node.serve()
    node.expose("fs", service)
    node.expose("control", Control(world, server))
    thread = ServerThread(server)
    client = SocketTransport("127.0.0.1", thread.start(), dst=node.name,
                             connect_timeout_s=2.0, reply_timeout_s=5.0)
    try:
        fs = client.bind("fs", idempotent=("pread",))
        fd = fs.open("census.dat", O_CREAT | O_RDWR)
        pages = (0, 2, 5)
        for page in pages:
            fs.pwrite(fd, bytes([page + 1]) * 4096, page * 4096)
        fs.fsync(fd)
        data = fs.pread(fd, 6 * 4096, 0)
        fs.close(fd)
    finally:
        # The server stops first, with the connection still open, so its
        # shutdown always wakes the connection's thread: closing the
        # client first would race that thread's own close, and the lines
        # the census counts would vary from run to run.
        thread.stop()
        client.close()
    if any(data[page * 4096] != page + 1 for page in pages):
        raise SystemExit("the served session read back other bytes")


def reached_without_tests() -> dict:
    """``{module: line numbers}`` that the examples, the quick report,
    the emitter smokes and the served session reach, counted by a fresh
    tracer in a fresh interpreter: a module's top-level lines run once
    per process, and the suite has imported every module already."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "reached.json"
        subprocess.run([sys.executable, __file__, "--entry-points", str(out)],
                       check=True)
        return {module: set(lines)
                for module, lines in json.loads(out.read_text()).items()}


def census() -> dict:
    """Run the suite, the examples and the quick report;
    ``{module: [[line, text], ...]}`` for every module with a line that
    did not run, the total count of executable lines, and per module
    the count of lines that ran but that no entry point reaches."""
    sys.path[:0] = [str(REPO / "src"), str(REPO)]
    # Each module's lines as they are when the run starts, the text the
    # suite imports: a module edited during the run is still compared
    # line for line with the code that ran.
    modules = {str(path.relative_to(ROOT.parent)): executable(path)
               for path in sorted(ROOT.rglob("*.py"))}
    tracer = LineTracer()
    tracer.arm()
    try:
        status = pytest.main(["-q", "-x", "-p", "no:cacheprovider",
                              "--hypothesis-profile=census",
                              str(REPO / "tests")], plugins=[tracer])
        run_entry_points(tracer)
    finally:
        tracer.disarm()
    if status != 0:
        raise SystemExit(f"tier-1 failed under the tracer (exit {status})")
    reached = reached_without_tests()
    unrun, test_only, total = {}, {}, 0
    for module, lines in modules.items():
        total += len(lines)
        ran = tracer.ran[module]
        missed = [[n, text] for n, text in lines.items() if n not in ran]
        if missed:
            unrun[module] = missed
        only = len(ran.intersection(lines) - reached.get(module, set()))
        if only:
            test_only[module] = only
    return {"executable": total, "test_only": test_only, "unrun": unrun}


def _texts(unrun: dict) -> collections.Counter:
    return collections.Counter(
        (module, text) for module, lines in unrun.items() for _, text in lines
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite benchmarks/CENSUS.json with this run")
    parser.add_argument("--entry-points", metavar="PATH",
                        help=argparse.SUPPRESS)  # reached_without_tests
    args = parser.parse_args(argv)
    if args.entry_points:
        sys.path[:0] = [str(REPO / "src"), str(REPO)]
        tracer = LineTracer()
        try:
            run_entry_points(tracer, SMOKES)
            served_session(tracer)
        finally:
            tracer.disarm()
        pathlib.Path(args.entry_points).write_text(json.dumps(
            {module: sorted(lines) for module, lines in tracer.ran.items()}))
        return 0
    fresh = census()
    unrun, test_only = fresh["unrun"], fresh["test_only"]
    count = sum(map(len, unrun.values()))
    print(f"\nunrun: {count} of {fresh['executable']} executable lines "
          f"of src/repro, in {len(unrun)} modules")
    for module in sorted(unrun, key=lambda m: -len(unrun[m]))[:10]:
        print(f"  {module:<32} {len(unrun[module]):>4}")
    print(f"test only: {sum(test_only.values())} lines that no "
          "example, quick report or emitter smoke reaches")
    for module in sorted(test_only, key=lambda m: -test_only[m])[:10]:
        print(f"  {module:<32} {test_only[module]:>4}")
    if args.update:
        COMMITTED.write_text(json.dumps(fresh, indent=1) + "\n")
        print(f"wrote {COMMITTED}")
        return 0
    committed = json.loads(COMMITTED.read_text())
    now = _texts(unrun)
    before = _texts(committed["unrun"])
    joined, left = now - before, before - now
    for label, lines in (("joined", joined), ("left", left)):
        for (module, text), times in sorted(lines.items()):
            repeat = f" (x{times})" if times > 1 else ""
            print(f"  {label}: {module}: {text}{repeat}")
    was_only = committed["test_only"]
    moved = {module: (was_only.get(module, 0), test_only.get(module, 0))
             for module in sorted({*was_only, *test_only})
             if was_only.get(module, 0) != test_only.get(module, 0)}
    for module, (was, count) in moved.items():
        print(f"  test only: {module}: {was} -> {count}")
    rose = [module for module, (was, count) in moved.items() if count > was]
    if joined:
        print(f"\n{sum(joined.values())} line(s) joined the list: give each "
              "a test that runs it, or delete it.")
    if rose:
        print(f"\n{len(rose)} module(s) gained test-only lines: reach each "
              "from an example, the quick report, an emitter smoke or the "
              "served session, or delete it.")
    if joined or rose:
        return 1
    if left or moved:
        print("\nthe census fell.  Run "
              "`PYTHONPATH=src:. python benchmarks/check_census.py --update` "
              "and commit benchmarks/CENSUS.json.")
        return 1
    print("\nthe census matches benchmarks/CENSUS.json.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
