"""Spring objects.

"A Spring object is an abstraction that contains state and provides a set
of operations to manipulate that state" (paper sec. 3.1).  Objects are
served by exactly one domain; the representation held by other domains is
conceptually an unforgeable nucleus handle — here, simply the Python
reference, with the cost of reaching the server charged per invocation by
:mod:`repro.ipc.invocation`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import RevokedObjectError

if TYPE_CHECKING:
    from repro.ipc.domain import Domain


class SpringObject:
    """Base class for every object exported through a Spring interface.

    Subclasses declare their operations with the ``@operation`` decorator;
    plain (undecorated) methods are implementation-internal and bypass
    invocation accounting.
    """

    def __init__(self, domain: "Domain") -> None:
        self.domain = domain
        #: Bound at creation, as ``Domain.world`` is: an object never
        #: changes server domain, and layers read this on every charge.
        self.world = domain.world
        self.oid = domain.world.next_oid()
        self._revoked = False

    @property
    def revoked(self) -> bool:
        return self._revoked

    def revoke(self) -> None:
        """Destroy the server-side object.  Subsequent operations raise
        :class:`RevokedObjectError` — modelling Spring's consumed/deleted
        object semantics (paper Appendix A passing modes)."""
        self._revoked = True

    def check_live(self) -> None:
        """Raise if the object has been revoked.  For use inside
        non-operation helpers."""
        if self._revoked:
            raise RevokedObjectError(f"{type(self).__name__} {self.oid} is revoked")

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} oid={self.oid} "
            f"domain={self.domain.name!r}>"
        )
