"""File system creators and stack configuration (paper sec. 4.4).

"At boot-time or during run-time, the file system creator for each file
system type (e.g., DFS and COMPFS) is created.  When a file system
creator is started, it registers itself in a well-known place e.g.
/fs_creators/dfs_creator."

This module provides creators for every layer type in the library, the
registration helper, and :func:`build_stack` — the "proper extensible
file system configuration tools" the paper lists as future work: a
declarative spec is turned into the exact lookup/create/stack_on/bind
sequence of the paper's sec. 4.5 walkthrough.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import FsError, NameNotFoundError
from repro.ipc.domain import Credentials
from repro.ipc.invocation import operation
from repro.ipc.node import Node

from repro.fs.cfs import CfsLayer
from repro.fs.coherency import CoherencyLayer
from repro.fs.compfs import CompFs
from repro.fs.cryptfs import CryptFs
from repro.fs.dfs import DfsLayer
from repro.fs.fs_interfaces import StackableFs, StackableFsCreator
from repro.fs.mirrorfs import MirrorFs
from repro.fs.nullfs import NullFs
from repro.fs.quotafs import QuotaFs


class LayerCreator(StackableFsCreator):
    """A creator parameterized by a layer class.

    Each ``create`` call makes a fresh server domain for the instance
    (the common administrative choice).
    """

    _counter = 0

    def __init__(
        self,
        domain,
        layer_class: type,
        type_tag: str,
        **layer_kwargs: Any,
    ) -> None:
        super().__init__(domain)
        self.layer_class = layer_class
        self.type_tag = type_tag
        self.layer_kwargs = layer_kwargs

    def create_type_tag(self) -> str:
        return self.type_tag

    @operation
    def create(self, **overrides: Any) -> StackableFs:
        LayerCreator._counter += 1
        domain = self.domain.node.create_domain(
            f"{self.type_tag}-{LayerCreator._counter}",
            Credentials(self.type_tag, privileged=True),
        )
        kwargs = dict(self.layer_kwargs)
        kwargs.update(overrides)
        return self.layer_class(domain, **kwargs)


#: Layer classes creatable by type tag (disk and mono need a device, so
#: they are constructed by create_sfs / explicitly, not by creators).
CREATABLE_LAYERS: Dict[str, type] = {
    "coherency": CoherencyLayer,
    "compfs": CompFs,
    "cryptfs": CryptFs,
    "dfs": DfsLayer,
    "mirrorfs": MirrorFs,
    "cfs": CfsLayer,
    "nullfs": NullFs,
    "quotafs": QuotaFs,
}


def register_standard_creators(node: Node) -> Dict[str, LayerCreator]:
    """Boot-time registration: one creator per layer type, bound under
    /fs_creators as <type>_creator."""
    creators_domain = node.create_domain(
        "fs-creators", Credentials("fs-creators", privileged=True)
    )
    registered = {}
    with creators_domain.activate():
        for tag, layer_class in CREATABLE_LAYERS.items():
            creator = LayerCreator(creators_domain, layer_class, tag)
            node.fs_creators.bind(f"{tag}_creator", creator)
            registered[tag] = creator
    return registered


def lookup_creator(node: Node, type_tag: str) -> StackableFsCreator:
    """Step 1 of the paper's configuration method: 'A file system creator
    object is looked up from the well-known place using a normal naming
    resolve operation.'"""
    try:
        obj = node.fs_creators.resolve(f"{type_tag}_creator")
    except NameNotFoundError:
        raise FsError(
            f"no creator registered for {type_tag!r}; "
            f"run register_standard_creators(node) first"
        )
    if not isinstance(obj, StackableFsCreator):
        raise FsError(f"/fs_creators/{type_tag}_creator is not a creator")
    return obj


@dataclasses.dataclass
class LayerSpec:
    """One layer in a declarative stack description."""

    type_tag: str
    options: Dict[str, Any] = dataclasses.field(default_factory=dict)


def build_stack(
    node: Node,
    base: StackableFs,
    layers: Sequence[LayerSpec],
    export_as: Optional[str] = None,
    export_all: bool = False,
) -> List[StackableFs]:
    """Run the sec. 4.5 walkthrough for an arbitrary stack:

    1. look up each creator from /fs_creators,
    2. create an instance,
    3. stack it on the layer below,
    4. bind the top (and optionally every intermediate layer — "a
       decision is made whether or not to export SFS, COMPFS, and DFS
       files") into /fs.

    Returns the layer instances bottom-up (excluding ``base``).
    """
    built: List[StackableFs] = []
    current = base
    for spec in layers:
        creator = lookup_creator(node, spec.type_tag)
        instance = creator.create(**spec.options)
        instance.stack_on(current)
        if export_all:
            node.fs_context.bind(f"{spec.type_tag}-{instance.oid}", instance)
        built.append(instance)
        current = instance
    if export_as is not None:
        node.fs_context.bind(export_as, current)
    return built
