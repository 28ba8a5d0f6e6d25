"""Sharded, replicated DFS: namenode/datanode split with quorum I/O.

See ``docs/DISTRIBUTED.md`` for the protocol and state machines.
"""

from repro.dfs.cluster import create_sharded_dfs
from repro.dfs.layer import QuorumReadError, QuorumWriteError

__all__ = [
    "QuorumReadError",
    "QuorumWriteError",
    "create_sharded_dfs",
]
