"""Client-side name caching.

The paper's fix for cross-domain open overhead: "If the open overhead
caused by splitting file system layers across domains turns out to be
significant ... name caching can be used to eliminate the overhead. We
are currently implementing name caching in Spring" (sec. 6.4).  The
paper treats it as future work; we implement it and ablate it
(`benchmarks/bench_ablation_namecache.py`).

A :class:`NameCache` sits in the *client's* domain.  A hit costs one
small in-domain charge instead of a chain of (possibly cross-domain or
cross-machine) context hops.  Correctness: every :class:`MemoryContext`
mutation fires a world-level event; the cache drops every entry whose
resolution path passed through the mutated context — including entries
cached through layer directories, because paths are remembered via
:meth:`~repro.naming.context.NamingContext.path_identity`, which sees
through wrapper chains to the context that actually fires the event.

Three refinements over a plain positive map:

* **True LRU** — entries live in an ordered map; a hit refreshes the
  entry and a full cache evicts exactly the least-recently-used entry
  (counted in ``namecache.evict``) instead of dropping everything.
* **Negative entries** — a failed resolution is cached too, keyed by
  the same path oids it traversed, so repeated lookups of absent names
  (the classic ``$PATH`` search pattern) cost one in-domain charge.
* **Prefix sharing** — a miss on ``a/b/c`` first consults the cache for
  its longest cached context prefix (``a/b``, then ``a``) and resumes
  resolution from there, paying the hops only for the uncached suffix.
  Consult-only: resolving a name never implicitly caches its prefixes.

With ``one_hop=True`` a miss delegates the whole walk to the root
context's :meth:`~repro.naming.context.NamingContext.resolve_path` —
one round trip per *node* on the path instead of one per component.
Off by default so existing cost calibration is unchanged.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Optional, Set, Tuple

from repro.errors import (
    FileNotFoundError_,
    NameNotFoundError,
    NotAContextError,
)
from repro.ipc.narrow import narrow
from repro.naming import name as names
from repro.naming.context import NamingContext

#: Entries a :class:`NameCache` keeps before evicting the least
#: recently used.
CAPACITY = 1024


@dataclasses.dataclass
class _Entry:
    """One cached resolution — positive (``value``) or negative
    (``missing`` names the unresolvable prefix; ``error`` is the
    exception type the real resolution raised, re-raised on a hit so
    cached failures look exactly like fresh ones)."""

    value: object
    path_oids: Set[int]
    missing: Optional[str] = None
    error: type = NameNotFoundError

    @property
    def negative(self) -> bool:
        return self.missing is not None


class NameCache:
    """LRU name cache with negative entries and prefix sharing.  Its
    events are ``namecache.*`` keys of ``world.counters``."""

    def __init__(self, world, one_hop: bool = False) -> None:
        self.world = world
        #: Resolve misses via a single server-side ``resolve_path`` walk
        #: (one hop per node) instead of a client-driven component walk.
        self.one_hop = one_hop
        #: (root oid, normalized name) -> _Entry, in LRU order
        #: (least recently used first).
        self._entries: "collections.OrderedDict[Tuple[int, str], _Entry]" = (
            collections.OrderedDict()
        )
        world.register_name_cache(self)

    # --- lookup ---------------------------------------------------------------
    def resolve(self, root: NamingContext, name: str) -> object:
        """Resolve through the cache, falling back to real resolution."""
        normalized = names.normalize(name)
        key = (root.oid, normalized)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.world.charge.name_cache_hit()
            if entry.negative:
                self.world.counters.inc("namecache.negative_hit")
                raise entry.error(f"{entry.missing!r} not found (cached)")
            self.world.counters.inc("namecache.hit")
            return entry.value
        self.world.counters.inc("namecache.miss")
        start, remainder, path_oids = self._consult_prefix(
            root, normalized
        )
        try:
            obj, walked = self._resolve_tracking(start, remainder)
        except (NameNotFoundError, FileNotFoundError_) as exc:
            path_oids |= getattr(exc, "path_oids", set())
            self._insert(
                key, _Entry(None, path_oids, missing=normalized, error=type(exc))
            )
            raise
        self._insert(key, _Entry(obj, path_oids | walked))
        return obj

    def _consult_prefix(
        self, root: NamingContext, normalized: str
    ) -> Tuple[NamingContext, str, Set[int]]:
        """Longest cached positive context prefix of ``normalized``, if
        any: returns (context to resume from, remaining name, oids of
        the cached prefix path).  Falls back to (root, whole name, {})."""
        components = normalized.split(names.SEPARATOR)
        for cut in range(len(components) - 1, 0, -1):
            prefix_key = (root.oid, names.SEPARATOR.join(components[:cut]))
            entry = self._entries.get(prefix_key)
            if entry is None or entry.negative:
                continue
            context = narrow(entry.value, NamingContext)
            if context is None:
                continue
            self._entries.move_to_end(prefix_key)
            self.world.charge.name_cache_hit()
            self.world.counters.inc("namecache.prefix_hit")
            remainder = names.SEPARATOR.join(components[cut:])
            return context, remainder, set(entry.path_oids)
        return root, normalized, set()

    def _resolve_tracking(
        self, root: NamingContext, name: str
    ) -> Tuple[object, Set[int]]:
        """Resolve ``name`` from ``root``, remembering which contexts
        were traversed so mutations to any of them invalidate the entry.
        A :class:`NameNotFoundError` raised mid-walk is annotated with
        the oids traversed so far (``exc.path_oids``) for negative
        caching."""
        if self.one_hop:
            resolved = root.resolve_path(name)
            path_oids = set(resolved.path_oids)
            if not resolved.found:
                exc = NameNotFoundError(
                    f"{resolved.missing!r} not found"
                )
                exc.path_oids = path_oids  # type: ignore[attr-defined]
                raise exc
            return resolved.target, path_oids

        components = names.split_name(name)
        path_oids: Set[int] = set()
        current: object = root
        for index, component in enumerate(components):
            context = narrow(current, NamingContext)
            if context is None:
                raise NotAContextError(
                    f"{components[index - 1]!r} is a "
                    f"{type(current).__name__}, not a context"
                )
            path_oids.update(context.path_identity())
            try:
                current = context.resolve(component)
            except (NameNotFoundError, FileNotFoundError_) as exc:
                exc.path_oids = path_oids  # type: ignore[attr-defined]
                raise
        return current, path_oids

    # --- insertion / eviction -------------------------------------------------
    def _insert(self, key: Tuple[int, str], entry: _Entry) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= CAPACITY:
            self._entries.popitem(last=False)
            self.world.counters.inc("namecache.evict")
        self._entries[key] = entry

    # --- invalidation ---------------------------------------------------------
    def on_name_event(self, context: NamingContext, component: str) -> None:
        """Called by the world whenever any context binding changes."""
        stale = [
            key
            for key, entry in self._entries.items()
            if context.oid in entry.path_oids
        ]
        for key in stale:
            del self._entries[key]
            self.world.counters.inc("namecache.invalidate")

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
