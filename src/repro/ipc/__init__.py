"""Spring object/IPC model: objects, domains, nodes, invocation paths,
narrowing, and interposition (paper sec. 3.1)."""

from repro.ipc.compound import (
    CompoundInvocation,
    CompoundSubOpError,
)
from repro.ipc.narrow import narrow
from repro.ipc.retry import RetryPolicy
from repro.ipc.transport import (
    RemoteStub,
    ServerThread,
    SocketTransport,
)

__all__ = [
    "RemoteStub",
    "ServerThread",
    "SocketTransport",
    "CompoundInvocation",
    "CompoundSubOpError",
    "narrow",
    "RetryPolicy",
]
