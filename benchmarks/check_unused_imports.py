"""Unused-import gate: names a module imports and never mentions.

``ruff`` is not installed where this repository is developed and F401 is
not among the rules ``pyproject.toml`` selects, so the ``lint`` job runs
this ``ast`` scan beside ``check_sloc.py``.  A name counts as used when
the module reads it anywhere — as a bare name, as the root of an
attribute chain, inside a string annotation (``"Vmm"``) or in
``__all__``.  ``__init__.py`` re-exports, ``from __future__`` imports and
lines carrying ``# noqa`` are skipped.

Prints ``path:line: name`` per finding and exits non-zero when there is
one.

Usage (from the repo root)::

    python benchmarks/check_unused_imports.py [PATH ...]   # default: src/repro
"""

import ast
import pathlib
import sys

DEFAULT = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _names(node: ast.AST) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list:
    """``[(line, name)]`` of the imported names ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported[name] = node.lineno
    used = _names(tree)
    for node in ast.walk(tree):
        # Names inside strings: quoted annotations and ``__all__`` entries.
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= _names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return sorted((line, name) for name, line in imported.items() if name not in used)


def main(argv=None) -> int:
    roots = [pathlib.Path(arg) for arg in (argv if argv is not None else sys.argv[1:])]
    findings = 0
    for root in roots or [DEFAULT]:
        paths = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in paths:
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text()):
                print(f"{path}:{line}: {name}")
                findings += 1
    if findings:
        print(f"\n{findings} imported name(s) never used.")
        return 1
    print("no unused imports.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
