"""Per-domain name spaces.

"Each Spring domain has a context object that implements a per-domain
name space.  All domains have part of their name space in common, but
they can also customize their name space as appropriate." (paper
sec. 3.2)

A :class:`Namespace` is a private context layered over the node's shared
root: absolute names (leading ``/``) resolve from the shared root;
relative names resolve from the private context first, falling back to
the root.  Binding a relative name customizes only this domain's view.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import NameNotFoundError
from repro.naming import name as names
from repro.naming.context import MemoryContext, NamingContext


class Namespace:
    """One domain's view of the name space."""

    def __init__(self, domain, root: NamingContext) -> None:
        self.domain = domain
        self.root = root
        self.private = MemoryContext(domain)

    def resolve(self, name: str) -> object:
        if names.is_absolute(name):
            return self.root.resolve(name)
        try:
            return self.private.resolve(name)
        except NameNotFoundError:
            return self.root.resolve(name)

    def bind(self, name: str, obj: object) -> None:
        """Bind into the private view (relative name) or the shared root
        (absolute name)."""
        if names.is_absolute(name):
            components = names.split_name(name)
            context = self._resolve_parent(self.root, components)
            context.bind(components[-1], obj)
        else:
            self.private.bind(name, obj)

    def unbind(self, name: str) -> object:
        if names.is_absolute(name):
            components = names.split_name(name)
            context = self._resolve_parent(self.root, components)
            return context.unbind(components[-1])
        return self.private.unbind(name)

    def list_bindings(self, name: str = "") -> List[Tuple[str, object]]:
        if name == "":
            return self.private.list_bindings()
        target = self.resolve(name)
        if not isinstance(target, NamingContext):
            raise NameNotFoundError(f"{name!r} is not a context")
        return target.list_bindings()

    @staticmethod
    def _resolve_parent(root: NamingContext, components: List[str]) -> NamingContext:
        context = root
        for component in components[:-1]:
            nxt = context.resolve(component)
            if not isinstance(nxt, NamingContext):
                raise NameNotFoundError(f"{component!r} is not a context")
            context = nxt
        return context


def namespace_for(domain) -> Namespace:
    """The domain's name space, created on first use over its node's
    shared root."""
    if domain.name_space is None:
        domain.name_space = Namespace(domain, domain.node.root_context)
    return domain.name_space
