"""Source-size gate: code lines per ``src/repro`` package.

ROADMAP item 6 makes line count a gated number — the paper's thesis is
that one invocation path and one pager/cache channel protocol are enough
to build every file system, so the reproduction should get *smaller* as
duplicates fold.  A code line is a physical line that carries at least
one token other than a comment; blank lines, comment-only lines and
docstrings do not count, so neither documenting code nor deleting
documentation moves the figure.  (Lines are what ``tokenize`` sees;
docstrings are what ``ast`` says are docstrings.)

Prints the per-package count and its delta against the committed
``benchmarks/SLOC.json``, then the five largest modules (the per-file
figures ROADMAP quotes come from here); exits non-zero when the
``src/repro`` total exceeds the committed total, and also when any
committed row no longer equals the tree — a stale row is a ratchet that
has stopped holding.  After a change that moves a figure, ``--update``
rewrites the committed file.

Usage (from the repo root)::

    python benchmarks/check_sloc.py [--update]
"""

import argparse
import ast
import io
import json
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
COMMITTED = pathlib.Path(__file__).resolve().parent / "SLOC.json"

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of code lines in one module's source text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def count_modules(root: pathlib.Path = ROOT) -> dict:
    """``{module path relative to root: code lines}``."""
    return {
        path.relative_to(root): code_lines(path.read_text())
        for path in sorted(root.rglob("*.py"))
    }


def count(modules: dict) -> dict:
    """``{package: code lines}`` for each directory of the root that
    ``modules`` (:func:`count_modules`) was counted under — its top-level
    modules count under ``"."`` — plus ``"total"``."""
    packages: dict = {}
    for relative, lines in modules.items():
        package = relative.parts[0] if len(relative.parts) > 1 else "."
        packages[package] = packages.get(package, 0) + lines
    packages["total"] = sum(packages.values())
    return packages


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite benchmarks/SLOC.json with the fresh counts")
    args = parser.parse_args(argv)
    modules = count_modules()
    fresh = count(modules)
    if args.update:
        COMMITTED.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
        print(f"wrote {COMMITTED}")
        return 0
    committed = json.loads(COMMITTED.read_text())
    for package in sorted(set(fresh) | set(committed), key=lambda p: (p == "total", p)):
        now, before = fresh.get(package, 0), committed.get(package, 0)
        print(f"  {package:<10} {now:>6}  ({now - before:+d} vs committed {before})")
    print("\nlargest modules:")
    for relative in sorted(modules, key=modules.get, reverse=True)[:5]:
        print(f"  {str(relative):<24} {modules[relative]:>6}")
    if fresh["total"] > committed["total"]:
        print(
            f"\nsrc/repro grew: {fresh['total']} code lines > committed "
            f"{committed['total']}.  Fold something, or run with --update "
            "and say in the PR why the growth is needed."
        )
        return 1
    if fresh != committed:
        print(
            "\nbenchmarks/SLOC.json is stale: a committed row differs from "
            "the tree.  Run `python benchmarks/check_sloc.py --update` and "
            "commit the file."
        )
        return 1
    print("\nsrc/repro matches the committed figures.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
