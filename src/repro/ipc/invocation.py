"""Location-independent object invocation.

Spring's stub technology "automatically chooses the optimal path
(procedure calls or cross-domain calls)" (paper sec. 6.4), and the same
invocation works across machines.  We reproduce that with the
:func:`operation` decorator: every operation on a :class:`SpringObject`
compares the calling domain (tracked in a thread-local stack) with the
server domain and charges the virtual clock with the right path cost:

* same domain            -> two local procedure calls
* same node, other domain -> one cross-domain call
* other node              -> one network round trip, sized by the bytes
                             actually carried in arguments and result

Code runs "inside" a domain via ``with domain.activate():``.  Invocations
made with no active domain (common in unit tests that don't care about
costs) are treated as originating in the server's own domain and charge
nothing; benchmarks always activate a client domain.

Each thread keeps one stack of flattened ``(caller, domain)`` pairs:
``stack[-1]`` is the domain on whose behalf code is executing and
``stack[-2]`` the domain that invoked the operation executing (None
outside any).  An invocation pushes ``(caller, server)``; an activation
pushes ``(calling_domain(), domain)``, so it changes the first and keeps
the second.  Either pops its pair with one ``del stack[-2:]``.

The wrapper runs on every invocation, so it enters as few Python frames
as it can: a local or cross-domain call enters the wrapper,
``SimClock.charge`` (the charge is a ``functools.partial``, see
:class:`repro.sim.costs.Charger`) and the body; a direct call, the
wrapper and the body.  It tests the local path first, the two counters
are incremented on ``world.counters.counts`` inline, and the reply's
network charge is decided by the branch already taken.
``tests/test_spine_frames.py`` pins the frames each path enters.
"""

from __future__ import annotations

import functools
import sys
import threading
from typing import Any, Callable, List, Optional, TypeVar

from repro.errors import RevokedObjectError
from repro.ipc.retry import retry_send

#: Counter keys for the five invocation paths, interned once — the
#: wrapper below runs on every simulated invocation, so it must not
#: rebuild (and re-hash fresh copies of) these strings per call.
#: ``network_batched`` is a network-path invocation absorbed into a
#: compound batch (see :mod:`repro.ipc.compound`): it rides a shared
#: round trip instead of paying its own.
_DIRECT, _LOCAL, _CROSS_DOMAIN, _NETWORK, _NETWORK_BATCHED = (
    sys.intern(f"invoke.{path}")
    for path in ("direct", "local", "cross_domain", "network", "network_batched")
)

#: Exact types that never carry payload bytes: a list of only these is
#: measured without a Python call per item.
_SCALARS = frozenset((int, float, str, bool, type(None)))


class _Stacks(threading.local):
    """One thread's invocation state.  ``threading.local`` runs
    ``__init__`` in each thread that touches the object, so both stacks
    exist — empty — wherever they are read."""

    def __init__(self) -> None:
        #: Flattened ``(caller, domain)`` pairs, innermost last (see the
        #: module docstring).
        self.stack: List[Any] = []
        #: Open compound regions (see repro.ipc.compound.CompoundRegion):
        #: a region absorbs the network hops issued by the domain that
        #: opened it, coalescing them into one round trip per destination
        #: node.  The stack lives here so the hot wrapper below needs no
        #: import of the compound module.
        self.regions: List[Any] = []


_tls = _Stacks()


def current_domain() -> Optional[Any]:
    """The domain on whose behalf the current code is executing, or None."""
    stack = _tls.stack
    return stack[-1] if stack else None


def calling_domain() -> Optional[Any]:
    """The domain that invoked the operation currently executing — what
    ACL checks must authenticate (the *client*, not the server whose
    domain is active while the operation body runs)."""
    stack = _tls.stack
    return stack[-2] if stack else None


def push_domain(domain: Any) -> None:
    """Make ``domain`` current; the calling domain stays as it was."""
    stack = _tls.stack
    stack += (stack[-2] if stack else None, domain)


def pop_domain() -> None:
    del _tls.stack[-2:]


def push_compound_region(region: Any) -> None:
    _tls.regions.append(region)


def pop_compound_region() -> None:
    _tls.regions.pop()


def _absorbing_region(caller: Any, server: Any) -> Optional[Any]:
    """Innermost active region willing to absorb a ``caller`` -> ``server``
    network hop, or None."""
    for region in reversed(_tls.regions):
        if region.absorbs(caller, server):
            return region
    return None


def bytes_in(value: Any) -> int:
    """Bytes-like payload carried inside ``value``, recursing through
    containers (dicts of pages, lists of (offset, data) pairs).  Scalars
    and object references are free — the round-trip cost already covers a
    small control message."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return 0
    if _SCALARS.issuperset(map(type, value)):
        return 0
    return sum(map(bytes_in, value))


F = TypeVar("F", bound=Callable[..., Any])


def operation(fn: F) -> F:
    """Mark a method as a Spring interface operation.

    The wrapper charges the invocation-path cost, records the call on the
    world's counters, and runs the method body with the server's domain
    active (so nested invocations are charged relative to the server).
    """

    op_key = sys.intern(f"op.{fn.__name__}")

    @functools.wraps(fn)
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        if self._revoked:
            raise RevokedObjectError(
                f"{type(self).__name__}.{fn.__name__} on revoked object {self.oid}"
            )
        server = self.domain
        world = server.world
        stack = _tls.stack
        caller = stack[-1] if stack else None
        remote = False
        if caller is server:
            path = _LOCAL
            world.charge.local_call()
        elif caller is None:
            # No active domain: zero-cost local semantics (see module doc).
            path = _DIRECT
        elif caller.node is server.node:
            path = _CROSS_DOMAIN
            world.charge.cross_domain_call()
        else:
            remote = True
            request_bytes = bytes_in(args) + (bytes_in(kwargs) if kwargs else 0)
            region = (
                _absorbing_region(caller, server) if _tls.regions else None
            )
            if region is not None:
                # Batched: the round trip is shared with the other ops of
                # the compound; only the payload bytes are accumulated.
                path = _NETWORK_BATCHED
                region.absorb(caller.node, server.node, request_bytes)
            else:
                path = _NETWORK
                policy = world.retry_policy
                if policy is None:
                    world.network.transfer(
                        caller.node, server.node, request_bytes
                    )
                else:
                    # Retrying the send is always safe: a transfer
                    # failure means the op body never ran server-side.
                    retry_send(
                        world, self, policy, caller.node, server.node,
                        request_bytes,
                    )
        counts = world.counters.counts
        counts[path] = counts.get(path, 0) + 1
        counts[op_key] = counts.get(op_key, 0) + 1
        stack += (caller, server)
        try:
            if not remote:
                return fn(self, *args, **kwargs)
            result = fn(self, *args, **kwargs)
        finally:
            del stack[-2:]
        reply_bytes = bytes_in(result)
        if reply_bytes:
            world.network.payload(server.node, caller.node, reply_bytes)
        return result

    wrapper._is_operation = True  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]
