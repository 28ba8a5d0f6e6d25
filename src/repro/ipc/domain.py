"""Domains.

"A Spring domain is an address space with a collection of threads"
(paper sec. 3.1).  A domain may serve some objects and be a client of
others.  Domains carry the credentials used by naming-context ACL checks.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator, Optional

from repro.ipc import invocation

if TYPE_CHECKING:
    from repro.ipc.node import Node


class Credentials:
    """Identity presented to ACL checks.

    ``principal`` is a user-style identity; ``privileged`` marks system
    servers allowed to manipulate protected parts of the name space
    (paper sec. 5: "the interposer has to be appropriately
    authenticated").
    """

    def __init__(self, principal: str, privileged: bool = False) -> None:
        self.principal = principal
        self.privileged = privileged

    def __repr__(self) -> str:
        kind = "privileged" if self.privileged else "user"
        return f"<Credentials {self.principal!r} ({kind})>"


class Domain:
    """An address space on a node.

    Created through :meth:`repro.ipc.node.Node.create_domain`.  Placement
    of servers into domains is "an administrative decision ... independent
    of the interface of the service" (paper sec. 3.1) — the stacking
    benchmarks exploit exactly this by moving layers between domains.
    """

    def __init__(
        self,
        node: "Node",
        name: str,
        credentials: Optional[Credentials] = None,
    ) -> None:
        self.node = node
        self.name = name
        #: The node's world, bound at creation: domains never migrate
        #: between worlds, and ``domain.world`` sits on the invocation
        #: hot path, so a plain attribute beats a property hop.
        self.world = node.world
        self.credentials = credentials or Credentials(name)

    @contextlib.contextmanager
    def activate(self) -> Iterator["Domain"]:
        """Run the enclosed code on behalf of this domain.

        Invocations made inside the block are charged relative to this
        domain's placement.
        """
        invocation.push_domain(self)
        try:
            yield self
        finally:
            invocation.pop_domain()

    def __repr__(self) -> str:
        return f"<Domain {self.name!r} on {self.node.name!r}>"
