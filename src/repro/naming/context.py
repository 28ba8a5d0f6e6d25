"""Naming contexts.

"A context is an object that contains a set of name bindings in which
each name is unique. ... Since a context is like any other object, it can
also be bound to a name in some context." (paper sec. 3.2)

Two properties of Spring naming matter to file stacking and are
reproduced here:

* any domain may implement a naming context and (if authenticated) bind
  it anywhere — this is how a ``stackable_fs`` exports its files, and how
  interposers splice themselves in (paper sec. 5);
* resolution of a compound name hops context to context, so each hop is
  charged with the invocation path between the caller and whichever
  domain serves that context.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    FileNotFoundError_,
    NameAlreadyBoundError,
    NameNotFoundError,
    NotAContextError,
)
from repro.ipc import invocation
from repro.ipc.narrow import narrow
from repro.ipc.object import SpringObject
from repro.naming import name as names
from repro.naming.acl import Acl, open_acl


@dataclasses.dataclass(frozen=True)
class ResolvedPath:
    """Result of a server-side compound-name walk (:meth:`NamingContext.
    resolve_path`).

    ``path_oids`` are the identities of every context traversed —
    including the wrapped chains under layer directories — so name
    caches can invalidate precisely.  A failed walk is *returned*, not
    raised (``missing`` names the path prefix that did not resolve), so
    a caller paying one round trip for the walk also learns enough to
    negative-cache the failure.
    """

    target: Optional[object]
    path_oids: Tuple[int, ...]
    missing: Optional[str] = None

    @property
    def found(self) -> bool:
        return self.missing is None


class NamingContext(SpringObject, abc.ABC):
    """The naming_context interface."""

    @abc.abstractmethod
    def resolve(self, name: str) -> object:
        """Resolve a (possibly compound) name to an object."""

    @invocation.operation
    def resolve_path(self, name: str) -> ResolvedPath:
        """Walk every component of ``name`` server-side in one
        invocation — one hop per serving *node* instead of one client
        round trip per component.

        The default implementation works for any context type: it
        resolves component by component with the server's domain
        active, so hops between contexts co-located on this node are
        local or cross-domain calls, and delegates the remainder in a
        single nested invocation whenever the walk crosses to a context
        served by another node.
        """
        caller = invocation.calling_domain()
        self._check_resolve_access(
            caller.credentials if caller is not None else None
        )
        components = names.split_name(name)
        oids: List[int] = []
        current: object = self
        for index, component in enumerate(components):
            context = narrow(current, NamingContext)
            if context is None:
                raise NotAContextError(
                    f"{components[index - 1]!r} is a "
                    f"{type(current).__name__}, not a context; cannot "
                    f"resolve remainder {names.SEPARATOR.join(components[index:])!r}"
                )
            if index > 0 and context.domain.node is not self.domain.node:
                # The walk crossed machines: hand the remainder to the
                # next node in one invocation, so the total cost is one
                # hop per node boundary.
                sub = context.resolve_path(
                    names.SEPARATOR.join(components[index:])
                )
                return ResolvedPath(
                    sub.target, tuple(oids) + sub.path_oids, sub.missing
                )
            oids.extend(context.path_identity())
            try:
                current = context.resolve(component)
            except (NameNotFoundError, FileNotFoundError_):
                # Plain contexts raise the former, file-system directory
                # wrappers the latter; either way the walk ends here.
                return ResolvedPath(
                    None,
                    tuple(oids),
                    names.SEPARATOR.join(components[: index + 1]),
                )
        return ResolvedPath(current, tuple(oids))

    def _check_resolve_access(self, credentials) -> None:
        """Hook: first-hop access check for :meth:`resolve_path`.

        The per-component ``resolve`` calls inside the walk authenticate
        the chain (each context checks the domain serving the previous
        one) exactly as recursive compound resolution always has; this
        hook lets ACL-bearing contexts also authenticate the *original*
        client on the first hop, matching a direct ``resolve``.
        """

    def path_identity(self) -> Tuple[int, ...]:
        """Oids under which name-mutation events affecting this context
        may fire: this object plus any wrapped context chain below it
        (layer directories forward mutations to the context they wrap,
        and the *wrapped* context is the one that fires the event).

        Bookkeeping peek, not an invocation — it carries no payload and
        models state the resolver already holds.
        """
        oids = [self.oid]
        seen = {id(self)}
        current: object = self
        while True:
            under = getattr(current, "under_context", None)
            if under is None:
                unders = getattr(current, "_under", None)
                under = unders[0] if unders else None
            if not isinstance(under, NamingContext) or id(under) in seen:
                break
            oids.append(under.oid)
            seen.add(id(under))
            current = under
        return tuple(oids)

    @abc.abstractmethod
    def bind(self, name: str, obj: object) -> None:
        """Create a binding for a single-component name."""

    @abc.abstractmethod
    def unbind(self, name: str) -> object:
        """Remove a binding, returning the object it named."""

    @abc.abstractmethod
    def rebind(self, name: str, obj: object) -> object:
        """Atomically replace a binding, returning the old object.

        This is the primitive interposers use: resolve, then rebind the
        name to a context/file implemented by the interposer.
        """

    @abc.abstractmethod
    def list_bindings(self) -> List[Tuple[str, object]]:
        """All (name, object) pairs, sorted by name."""


class MemoryContext(NamingContext):
    """The standard in-memory context implementation.

    Served by whatever domain created it; charged accordingly on every
    hop.  Fires world-level name-invalidation events on mutation so name
    caches (paper sec. 6.4's planned name caching) stay correct.
    """

    def __init__(self, domain, acl: Optional[Acl] = None) -> None:
        super().__init__(domain)
        self.acl = acl or open_acl()
        self._bindings: Dict[str, object] = {}

    # --- helpers ------------------------------------------------------------
    def _caller_credentials(self):
        caller = invocation.calling_domain()
        return caller.credentials if caller is not None else None

    def _notify_changed(self, component: str) -> None:
        self.world.name_event(self, component)

    def _check_resolve_access(self, credentials) -> None:
        self.acl.check_resolve(credentials)

    # --- naming_context operations -------------------------------------------
    @invocation.operation
    def resolve(self, name: str) -> object:
        self.acl.check_resolve(self._caller_credentials())
        head, tail = names.head_tail(name)
        try:
            obj = self._bindings[head]
        except KeyError:
            raise NameNotFoundError(f"{head!r} not bound in context {self.oid}")
        if tail == "":
            return obj
        sub = narrow(obj, NamingContext)
        if sub is None:
            raise NotAContextError(
                f"{head!r} is a {type(obj).__name__}, not a context; "
                f"cannot resolve remainder {tail!r}"
            )
        return sub.resolve(tail)

    @invocation.operation
    def bind(self, name: str, obj: object) -> None:
        self.acl.check_bind(self._caller_credentials())
        names.validate_component(name)
        if name in self._bindings:
            raise NameAlreadyBoundError(f"{name!r} already bound")
        self._bindings[name] = obj
        self._notify_changed(name)

    @invocation.operation
    def unbind(self, name: str) -> object:
        self.acl.check_bind(self._caller_credentials())
        names.validate_component(name)
        try:
            obj = self._bindings.pop(name)
        except KeyError:
            raise NameNotFoundError(f"{name!r} not bound")
        self._notify_changed(name)
        return obj

    @invocation.operation
    def rebind(self, name: str, obj: object) -> object:
        self.acl.check_bind(self._caller_credentials())
        names.validate_component(name)
        try:
            old = self._bindings[name]
        except KeyError:
            raise NameNotFoundError(f"{name!r} not bound")
        self._bindings[name] = obj
        self._notify_changed(name)
        return old

    @invocation.operation
    def list_bindings(self) -> List[Tuple[str, object]]:
        self.acl.check_resolve(self._caller_credentials())
        return sorted(self._bindings.items())

    # --- convenience ----------------------------------------------------------
    @invocation.operation
    def create_context(self, name: str, acl: Optional[Acl] = None) -> "MemoryContext":
        """Create a fresh sub-context served by this context's domain and
        bind it under ``name``."""
        sub = MemoryContext(self.domain, acl)
        self.bind(name, sub)
        return sub
