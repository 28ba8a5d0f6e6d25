"""Compound-name syntax.

Spring names are sequences of components; we use the familiar
slash-separated textual form.  A leading slash means "resolve from the
node's shared root" in :mod:`repro.naming.namespace`; within a context a
name is always relative.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import InvalidNameError

SEPARATOR = "/"


def split_name(name: str) -> List[str]:
    """Split a textual name into components, validating each.

    A split component holds no separator, so a name is valid when no
    component is empty and the name holds no NUL: the good path tests
    exactly that, and only a bad name is walked component by component,
    so the error is the one :func:`validate_component` gives its first
    offender.

    >>> split_name("a/b/c")
    ['a', 'b', 'c']
    >>> split_name("/fs/sfs0")
    ['fs', 'sfs0']
    """
    if not isinstance(name, str) or name == "":
        raise InvalidNameError(f"invalid name: {name!r}")
    components = (name[1:] if name[0] == SEPARATOR else name).split(SEPARATOR)
    if "" not in components and "\0" not in name:
        return components
    if name == SEPARATOR:
        raise InvalidNameError("the root itself cannot be named by ''")
    for component in components:
        if "\0" in component:
            raise InvalidNameError("component contains NUL")
        if component == "":
            break
    raise InvalidNameError("empty name component")


def validate_component(component: str) -> None:
    """A single binding name: non-empty, no separator, no NUL."""
    if component == "":
        raise InvalidNameError("empty name component")
    if SEPARATOR in component:
        raise InvalidNameError(f"component contains separator: {component!r}")
    if "\0" in component:
        raise InvalidNameError("component contains NUL")


def is_absolute(name: str) -> bool:
    return name.startswith(SEPARATOR)


def normalize(name: str) -> str:
    """Canonical textual form of a name relative to a given context:
    components joined by the separator, leading slash dropped.  Used as
    the name-cache key so ``/a/b`` and ``a/b`` against the same root
    share one entry (and one prefix chain).

    >>> normalize("/fs/sfs0")
    'fs/sfs0'
    """
    return SEPARATOR.join(split_name(name))


def head_tail(name: str) -> Tuple[str, str]:
    """Split into (first component, remainder) — remainder may be ''.

    >>> head_tail("a/b/c")
    ('a', 'b/c')
    >>> head_tail("a")
    ('a', '')
    """
    components = split_name(name)
    head = components[0]
    tail = SEPARATOR.join(components[1:])
    return head, tail


def join(*parts: str) -> str:
    """Join name parts with the separator, preserving a leading slash on
    the first part.

    >>> join("/fs", "sfs0", "file1")
    '/fs/sfs0/file1'
    """
    if not parts:
        raise InvalidNameError("join of no parts")
    cleaned = [parts[0].rstrip(SEPARATOR)] + [
        p.strip(SEPARATOR) for p in parts[1:] if p.strip(SEPARATOR)
    ]
    return SEPARATOR.join(cleaned)
