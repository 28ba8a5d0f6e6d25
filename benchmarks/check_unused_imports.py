"""Unused-import gate: names a module imports and never mentions.

``ruff`` is not installed where this repository is developed and F401 is
not among the rules ``pyproject.toml`` selects, so the ``lint`` job runs
this ``ast`` scan beside ``check_sloc.py``.  A name counts as used when
the module reads it anywhere — as a bare name, as the root of an
attribute chain, inside a string annotation (``"Vmm"``) or in
``__all__``.  ``from __future__`` imports and lines carrying ``# noqa``
are skipped.

A package's ``__init__.py`` imports names to re-export them, so there a
name counts as used only when some file imports it through the package
(``from repro.fs import create_sfs``) or reads it as
``repro.fs.create_sfs``.  The files searched are the Python and Markdown
files under ``SEARCHED``: an import shown in ``README.md`` or ``docs/``
is an importer too.

Prints ``path:line: name`` per finding and exits non-zero when there is
one.

Usage (from the repo root)::

    python benchmarks/check_unused_imports.py [PATH ...]   # default: src/repro
"""

import ast
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
DEFAULT = REPO / "src" / "repro"
#: Where an importer of a package's re-export may be, under the repo root.
SEARCHED = ("src", "tests", "benchmarks", "examples", "docs", "README.md", ".claude")


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


def unused_reexports(package: pathlib.Path, searched) -> list:
    """``[(path, line, name)]`` of the names an ``__init__.py`` under
    ``package`` imports that no file under ``searched`` imports through
    that package or reads as ``package.name``."""
    exported = {}  # dotted package -> {name: (path, line)}
    for init in sorted(package.rglob("__init__.py")):
        names = exported[".".join(init.parent.relative_to(package.parent).parts)] = {}
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    names[alias.asname or alias.name] = (init, node.lineno)
    root = re.escape(package.name)
    from_import = re.compile(
        rf"from\s+({root}(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^`\n]*)"
    )
    dotted = re.compile(rf"\b{root}(?:\.\w+)+")
    files = []
    for path in map(pathlib.Path, searched):
        files += sorted(path.rglob("*")) if path.is_dir() else [path]
    used = set()
    for path in files:
        if path.suffix not in (".py", ".md") or not path.is_file():
            continue
        text = path.read_text()
        for match in from_import.finditer(text):
            # Each item's first word: ``a as b`` imports ``a``, and prose
            # may follow an import quoted in Markdown (which ends at a `).
            for item in re.sub(r"#.*", "", match.group(2)).strip("()").split(","):
                word = re.match(r"\s*(\w+)", item)
                if word:
                    used.add((match.group(1), word.group(1)))
        for match in dotted.finditer(text):
            parts = match.group(0).split(".")
            used.update((".".join(parts[:i]), parts[i]) for i in range(1, len(parts)))
    return sorted(
        (path, line, name)
        for dotted_name, names in exported.items()
        for name, (path, line) in names.items()
        if (dotted_name, name) not in used
    )


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
        if (root / "__init__.py").is_file():
            for path, line, name in unused_reexports(
                root, [REPO / entry for entry in SEARCHED]
            ):
                print(f"{path}:{line}: {name} (re-exported; nothing imports "
                      "it through the package)")
                findings += 1
    if findings:
        print(f"\n{findings} imported name(s) never used.")
        return 1
    print("no unused imports.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
