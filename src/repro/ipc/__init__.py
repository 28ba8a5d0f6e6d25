"""Spring object/IPC model: objects, domains, nodes, invocation paths,
narrowing, and interposition (paper sec. 3.1)."""

from repro.ipc.compound import (
    CompoundInvocation,
    CompoundResult,
    CompoundSubOpError,
    compound_region,
)
from repro.ipc.domain import Credentials, Domain
from repro.ipc.interpose import CallRecord, InterposerBase
from repro.ipc.invocation import current_domain, operation
from repro.ipc.narrow import narrow, narrow_or_raise
from repro.ipc.network import Network, NetworkPartitionError
from repro.ipc.node import Node
from repro.ipc.object import SpringObject
from repro.ipc.retry import RetryPolicy
from repro.ipc.transport import (
    RemoteStub,
    ServerThread,
    SocketServer,
    SocketTransport,
)

__all__ = [
    "RemoteStub",
    "ServerThread",
    "SocketServer",
    "SocketTransport",
    "CompoundInvocation",
    "CompoundResult",
    "CompoundSubOpError",
    "compound_region",
    "Credentials",
    "Domain",
    "CallRecord",
    "InterposerBase",
    "current_domain",
    "operation",
    "narrow",
    "narrow_or_raise",
    "Network",
    "NetworkPartitionError",
    "Node",
    "RetryPolicy",
    "SpringObject",
]
