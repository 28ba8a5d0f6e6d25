"""MIRRORFS — a mirroring (replication) layer stacked on TWO file systems.

This is Figure 3's fs4: "the implementation of fs4 uses two underlying
file systems to implement its function (e.g. ... fs4 is a mirroring file
system)".  It demonstrates the multi-underlying form of ``stack_on``
("the stack_on operation can be called more than once", sec. 4.4) and
replication, another of the introduction's motivating extensions.

Policy: writes and creates go to every replica; reads are served from
the primary (first-stacked) replica, falling over to the secondary on a
storage error.  ``scrub`` compares replicas and reports divergence —
failure-injection tests drive both paths.

In spine terms (:mod:`repro.fs.base`) it is an ordinary layer whose
"file below" is a list: the per-file state carries every replica (the
primary is its ``under_file``), the ``file_*`` hooks fan out or fail
over, and the naming face (:class:`MirrorNaming`) does to each
underlying context what the generic one does to its single one.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import FsError, StorageError
from repro.ipc.invocation import operation
from repro.ipc.narrow import narrow
from repro.naming.context import NamingContext
from repro.types import AccessRights

from repro.fs.attributes import FileAttributes
from repro.fs.base import BaseLayer, LayerFile, LayerFileState
from repro.fs.file import File


class MirrorFileState(LayerFileState):
    """One mirrored file: ``under_file`` is the primary replica,
    ``replicas`` all of them in stacking order."""

    def __init__(self, layer: "MirrorFs", replicas: List[File]) -> None:
        super().__init__(layer, replicas[0])
        self.replicas = replicas


class MirrorFile(LayerFile):
    """An open handle to a mirrored file; every operation, ``bind``
    included, is one of :class:`MirrorFs`'s hooks."""


def _each(targets: list, op: str, *args) -> list:
    """Invoke ``op`` on every target — replica files, or the replicas'
    contexts — in stacking order; returns every result."""
    return [getattr(target, op)(*args) for target in targets]


class MirrorNaming(NamingContext):
    """MIRRORFS's naming face, written once: each operation runs against
    every context in ``unders`` — the replicas' roots on the layer root,
    the replicas' subdirectories on a :class:`MirrorDirectory`."""

    @operation
    def resolve(self, name: str) -> object:
        return self.layer.wrap_resolved(_each(self.unders, "resolve", name))

    @operation
    def bind(self, name: str, obj: object) -> None:
        raise FsError("mirrorfs holds files; use create_file")

    @operation
    def unbind(self, name: str) -> object:
        return _each(self.unders, "unbind", name)[0]

    @operation
    def rebind(self, name: str, obj: object) -> object:
        raise FsError("mirrorfs does not support rebind")

    @operation
    def list_bindings(self):
        return self.unders[0].list_bindings()

    @operation
    def create_file(self, name: str) -> File:
        return self.layer.wrap_resolved(_each(self.unders, "create_file", name))

    @operation
    def create_dir(self, name: str) -> "MirrorDirectory":
        return MirrorDirectory(self.layer, _each(self.unders, "create_dir", name))


class MirrorDirectory(MirrorNaming):
    def __init__(self, layer: "MirrorFs", unders: List[NamingContext]) -> None:
        super().__init__(layer.domain)
        self.layer = layer
        self.unders = unders


class MirrorFs(MirrorNaming, BaseLayer):
    """Two-way (or N-way) mirroring layer."""

    max_under = 2
    file_class = MirrorFile

    def fs_type(self) -> str:
        return "mirrorfs"

    def _make_holders(self):
        return None  # binds go to the primary replica; nothing is held here

    @property
    def unders(self) -> List[NamingContext]:
        """The root directory's contexts: the file systems stacked on."""
        if len(self._under) < 2:
            raise FsError("mirrorfs needs stack_on() called for two replicas")
        return self._under

    def wrap_resolved(self, objs: List[object]) -> object:
        files = [narrow(obj, File) for obj in objs]
        if all(f is not None for f in files):
            for f in files:
                f.check_access(AccessRights.READ_ONLY)
            state = self._states.get(files[0].source_key)
            if state is None:
                state = self._adopt_state(MirrorFileState(self, files))
            return MirrorFile(self, state)
        contexts = [narrow(obj, NamingContext) for obj in objs]
        if all(c is not None for c in contexts):
            return MirrorDirectory(self, contexts)
        raise FsError("replicas disagree about the object's type")

    # --- file hooks: fail over for reads, fan out for writes ------------------
    def bind_file(self, state, cache_manager, requested_access, offset, length):
        if requested_access.writable:
            raise FsError(
                "mirrorfs supports read-only mappings; write through the "
                "file interface so both replicas stay in step"
            )
        # Read-only mappings can share the primary replica's cache.
        return state.under_file.bind(cache_manager, requested_access, offset, length)

    def _primary_call(self, state: MirrorFileState, op: str, *args):
        """Invoke on the primary, failing over to later replicas on
        storage errors."""
        last_error: Optional[Exception] = None
        for index, replica in enumerate(state.replicas):
            try:
                return getattr(replica, op)(*args)
            except StorageError as exc:
                last_error = exc
                if index + 1 < len(state.replicas):
                    self.world.counters.inc("mirrorfs.failover")
        raise FsError(f"all replicas failed: {last_error}")

    def file_length(self, state: MirrorFileState) -> int:
        return self._primary_call(state, "get_length")

    def file_set_length(self, state: MirrorFileState, length: int) -> None:
        _each(state.replicas, "set_length", length)

    def file_read(self, state: MirrorFileState, offset: int, size: int) -> bytes:
        self.world.charge.fs_read_cpu()
        return self._primary_call(state, "read", offset, size)

    def file_write(self, state: MirrorFileState, offset: int, data: bytes) -> int:
        self.world.charge.fs_write_cpu()
        return _each(state.replicas, "write", offset, data)[-1]

    def file_get_attributes(self, state: MirrorFileState) -> FileAttributes:
        self.world.charge.fs_attr_copy()
        return self._primary_call(state, "get_attributes")

    def file_sync(self, state: MirrorFileState) -> None:
        _each(state.replicas, "sync")

    # --- maintenance -----------------------------------------------------------
    @operation
    def scrub(self, name: str) -> List[str]:
        """Compare replicas of one file; returns a list of divergence
        descriptions (empty = replicas identical)."""
        problems: List[str] = []
        replicas = _each(self.unders, "resolve", name)
        lengths = [r.get_length() for r in replicas]
        if len(set(lengths)) > 1:
            problems.append(f"length mismatch: {lengths}")
        size = min(lengths)
        chunk = 64 * 1024
        for offset in range(0, size, chunk):
            contents = [r.read(offset, min(chunk, size - offset)) for r in replicas]
            if len(set(contents)) > 1:
                problems.append(f"data mismatch in [{offset}, {offset + chunk})")
        return problems

    @operation
    def repair(self, name: str) -> None:
        """Copy the primary replica's content over the others."""
        replicas = _each(self.unders, "resolve", name)
        primary = replicas[0]
        size = primary.get_length()
        data = primary.read(0, size)
        for replica in replicas[1:]:
            replica.set_length(size)
            if size:
                replica.write(0, data)
