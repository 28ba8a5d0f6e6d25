"""Golden render drift check.

Re-renders the quick Table 2 / Table 3 calibration tables and the wire
format's reference frames, and diffs them against the committed goldens
under ``tests/golden/``.  The tier-1 suite
already asserts byte equality; this script exists for CI to print a
*readable* unified diff when they drift, so the culprit change is
obvious from the job log instead of a bare assertion failure.

Usage (from the repo root)::

    PYTHONPATH=src:. python benchmarks/check_golden_drift.py
"""

import difflib
import os
import pathlib
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from benchmarks.emit_common import ensure_repo_on_path

ensure_repo_on_path()

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"


def wire_v2_frames() -> str:
    """The frames one client/server conversation puts on the wire, as
    hex, 32 bytes a line: what ``ipc/wire.py`` format v2 *is*."""
    from repro.errors import UnixError
    from repro.fs.attributes import FileAttributes
    from repro.ipc import wire
    from repro.ipc.transport import ERRORED, OK, PING_OP, SKIPPED
    from repro.storage.inode import FileType

    attrs = FileAttributes(size=4096, atime_us=11, mtime_us=22, ctime_us=33,
                           ftype=FileType.REGULAR, nlink=1)
    gone = UnixError("ENOENT", "no such file: gone")
    frames = [
        ("REQUEST fs.pread(3, 4096, 8192)",
         wire.pack_frame(wire.REQUEST, 1, "fs", "pread", [3, 4096, 8192])),
        ("REPLY 4 KiB of zeros",
         wire.pack_frame(wire.REPLY, 1, "", "", bytes(4096))),
        ("REPLY fs.fstat -> FileAttributes",
         wire.pack_frame(wire.REPLY, 2, "", "", attrs)),
        ("ERROR UnixError ENOENT",
         wire.pack_frame(wire.ERROR, 3, "", "", gone)),
        ("COMPOUND fs.stat('a'), fs.stat('gone', follow=False), fail-fast",
         wire.pack_frame(
             wire.COMPOUND, 4, "", "",
             [["fs", "stat", ["a"], {}],
              ["fs", "stat", ["gone"], {"follow": False}]],
             {"fail_fast": True})),
        ("COMPOUND_REPLY ok, error, skipped",
         wire.pack_frame(wire.COMPOUND_REPLY, 4, "", "",
                         [(OK, attrs), (ERRORED, gone), (SKIPPED, None)])),
        ("REQUEST *ping* carrying 16 bytes",
         wire.pack_frame(wire.REQUEST, 5, "", PING_OP, [bytes(16)])),
    ]
    lines = []
    for label, frame in frames:
        text = frame.hex()
        lines.append(f"# {label} ({len(frame)} bytes)")
        lines.extend(text[at:at + 64] for at in range(0, len(text), 64))
    return "\n".join(lines) + "\n"


def renders():
    from repro.bench.table2 import run_table2
    from repro.bench.table3 import run_table3

    yield "table2_quick.txt", run_table2(iterations=5, runs=1).render() + "\n"
    yield "table3_quick.txt", run_table3(iterations=5, runs=1).render() + "\n"
    yield "wire_v2_frames.txt", wire_v2_frames()


def main() -> int:
    drifted = 0
    for name, fresh in renders():
        committed = (GOLDEN / name).read_text()
        if fresh == committed:
            print(f"  [  ok] tests/golden/{name} ({len(fresh)} bytes)")
            continue
        drifted += 1
        print(f"  [FAIL] tests/golden/{name} drifted:")
        sys.stdout.writelines(
            difflib.unified_diff(
                committed.splitlines(keepends=True),
                fresh.splitlines(keepends=True),
                fromfile=f"tests/golden/{name} (committed)",
                tofile=f"{name} (re-rendered)",
            )
        )
    if drifted:
        print(
            f"\ngolden drift: {drifted} render(s) no longer match.  If the "
            "change is intentional, regenerate the goldens and commit them "
            "with an explanation of what moved."
        )
        return 1
    print("\ngolden renders match the committed files.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
