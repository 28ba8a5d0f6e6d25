"""Extensible file systems: the paper's core contribution.

Layers: DiskLayer (base on-disk), CoherencyLayer (MRSW protocol),
MonolithicSfs (Table 2 baseline), CompFs (compression, Figures 5-6),
DfsLayer (distribution, Figure 7), CfsLayer (client attribute caching),
CryptFs (encryption extension), MirrorFs (replication, Figure 3's fs4),
plus per-file interposition (sec. 5) and creators/stack configuration
tools (sec. 4.4).
"""

from repro.fs.cfs import start_cfs
from repro.fs.compfs import CompFs
from repro.fs.creators import (
    LayerSpec,
    build_stack,
    lookup_creator,
    register_standard_creators,
)
from repro.fs.dfs import export_dfs, mount_remote
from repro.fs.interposer import (
    AuditFile,
    ReadOnlyFile,
    TransformFile,
    interpose_on_name,
)
from repro.fs.nullfs import NullFs
from repro.fs.sfs import create_sfs
from repro.fs.stack import describe_stack

__all__ = [
    "start_cfs",
    "CompFs",
    "LayerSpec", "build_stack", "lookup_creator",
    "register_standard_creators",
    "export_dfs", "mount_remote",
    "AuditFile", "ReadOnlyFile", "TransformFile",
    "interpose_on_name",
    "NullFs",
    "create_sfs",
    "describe_stack",
]
