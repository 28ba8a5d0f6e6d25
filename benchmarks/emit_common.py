"""Shared plumbing for the benchmark-record writers: each
``BENCH_*.json`` is emitted by the ``bench_*.py`` that holds its cells
(``build_record`` / ``summarize`` / ``main`` beside them).

Each emitter supplies a ``build()`` that returns the record dict and an
optional ``summarize(record)`` for the one-line headline; everything
else — environment capture, canonical JSON writing, smoke mode — lives
here so the emitters stay byte-for-byte reproducible and identically
behaved.

Canonical form: ``json.dumps(record, indent=2, sort_keys=True)`` plus a
trailing newline.  The environment summary is *printed*, never embedded
in the record, so re-running on a different host cannot perturb the
committed bytes.

``--smoke`` builds and validates the record without touching the
committed file — CI uses it to exercise the benchmark paths cheaply.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Callable, Dict, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def ensure_repo_on_path() -> None:
    """Make ``benchmarks.*`` and ``repro.*`` importable when an emitter
    is run as a script from anywhere."""
    repo_root = os.path.dirname(BENCH_DIR)
    for entry in (repo_root, os.path.join(repo_root, "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def env_summary() -> Dict[str, str]:
    """The execution environment, for the console only (see module
    docstring for why it must stay out of the record)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def dump_record(record: dict) -> str:
    """The canonical byte form of a benchmark record."""
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def write_record(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dump_record(record))


def emit(
    filename: str,
    build: Callable[[], dict],
    summarize: Optional[Callable[[dict], str]] = None,
    argv: Optional[list] = None,
) -> int:
    """Run one emitter: build the record and write it to
    ``benchmarks/<filename>``, or just validate it under ``--smoke``."""
    parser = argparse.ArgumentParser(description=f"emit {filename}")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="build and validate the record but do not write the file",
    )
    args = parser.parse_args(argv)
    env = env_summary()
    print(
        "env: "
        + " ".join(f"{key}={value}" for key, value in sorted(env.items()))
    )
    record = build()
    rendered = dump_record(record)  # validates JSON-serializability
    if args.smoke:
        print(f"smoke OK: {filename} ({len(rendered)} bytes, not written)")
    else:
        out = os.path.join(BENCH_DIR, filename)
        write_record(out, record)
        print(f"wrote {out}")
    if summarize is not None:
        print(summarize(record))
    return 0
