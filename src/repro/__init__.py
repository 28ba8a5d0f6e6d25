"""Reproduction of "Extensible File Systems in Spring"
(Khalidi & Nelson, SOSP 1993).

Top-level entry points:

>>> from repro import World
>>> from repro.storage import BlockDevice
>>> from repro.fs import create_sfs
>>> world = World()
>>> node = world.create_node("alpha")
>>> device = BlockDevice(node.nucleus, "sd0", 4096)
>>> sfs = create_sfs(node, device)

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.
"""

from repro.types import AccessRights
from repro.world import World

__all__ = ["AccessRights", "World"]
