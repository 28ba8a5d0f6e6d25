"""Per-file interposition (paper sec. 5) — watchdog-style extensions.

Two mechanisms from the paper:

1. **Object interposition**: substitute a file O1 for O2 of the same
   type; O1 decides per operation whether to forward or implement the
   functionality itself.  :class:`InterposedFile` is the forwarding
   base; :class:`AuditFile`, :class:`ReadOnlyFile` and
   :class:`TransformFile` are concrete watchdog-style interposers.

2. **Name-resolution-time interposition**: "an interposer resolves the
   name of the context where the file object(s) is bound, unbinds the
   context from the name space, and binds in its place a naming context
   implemented by the interposer itself."  :class:`WatchdogContext` and
   :func:`interpose_on_name` implement exactly that recipe (requiring
   bind rights on the parent context — the paper's authentication note).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.errors import PermissionDeniedError, ReadOnlyError
from repro.ipc.interpose import InterposerBase
from repro.ipc.invocation import operation
from repro.ipc.narrow import narrow
from repro.naming.context import NamingContext
from repro.types import AccessRights
from repro.vm.channel import BindResult
from repro.vm.memory_object import CacheManager

from repro.fs.attributes import FileAttributes
from repro.fs.file import File


class InterposedFile(InterposerBase, File):
    """A file of the same type as its target, forwarding every operation.

    Subclasses override individual operations; anything not overridden
    reaches the original file unchanged.
    """

    def __init__(self, domain, target: File) -> None:
        InterposerBase.__init__(self, domain, target)
        self.source_key = ("interposed", self.oid, target.source_key)

    # --- memory_object ------------------------------------------------------
    @operation
    def bind(
        self,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        length: int,
    ) -> BindResult:
        return self.forward("bind", cache_manager, requested_access, offset, length)

    @operation
    def get_length(self) -> int:
        return self.forward("get_length")

    @operation
    def set_length(self, length: int) -> None:
        return self.forward("set_length", length)

    # --- file ------------------------------------------------------------------
    @operation
    def read(self, offset: int, size: int) -> bytes:
        return self.forward("read", offset, size)

    @operation
    def write(self, offset: int, data: bytes) -> int:
        return self.forward("write", offset, data)

    @operation
    def get_attributes(self) -> FileAttributes:
        return self.forward("get_attributes")

    @operation
    def check_access(self, access: AccessRights) -> None:
        return self.forward("check_access", access)

    @operation
    def sync(self) -> None:
        return self.forward("sync")


class AuditFile(InterposedFile):
    """Records every data access (a watchdog that only watches)."""

    def __init__(self, domain, target: File) -> None:
        super().__init__(domain, target)
        self.audit_log: List[Tuple[str, int, int]] = []

    @operation
    def read(self, offset: int, size: int) -> bytes:
        self.audit_log.append(("read", offset, size))
        return self.forward("read", offset, size)

    @operation
    def write(self, offset: int, data: bytes) -> int:
        self.audit_log.append(("write", offset, len(data)))
        return self.forward("write", offset, data)


class ReadOnlyFile(InterposedFile):
    """Denies all mutation, implementing those operations itself."""

    @operation
    def write(self, offset: int, data: bytes) -> int:
        self.record_local("write", offset)
        raise ReadOnlyError("file is interposed read-only")

    @operation
    def set_length(self, length: int) -> None:
        self.record_local("set_length", length)
        raise ReadOnlyError("file is interposed read-only")

    @operation
    def bind(
        self,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        length: int,
    ) -> BindResult:
        if requested_access.writable:
            self.record_local("bind", offset)
            raise ReadOnlyError("writable mapping denied by interposer")
        return self.forward("bind", cache_manager, requested_access, offset, length)

    @operation
    def check_access(self, access: AccessRights) -> None:
        if access.writable:
            raise ReadOnlyError("file is interposed read-only")
        return self.forward("check_access", access)


class TransformFile(InterposedFile):
    """Applies a byte-level transform on the way in and out — the
    watchdog paper's canonical example (e.g. transparent rot13).

    ``decode`` is applied to data read; ``encode`` to data written.
    Mappings are denied: the transform only exists on the read/write
    path, so handing out raw pages would bypass it.
    """

    def __init__(
        self,
        domain,
        target: File,
        encode: Callable[[bytes], bytes],
        decode: Callable[[bytes], bytes],
    ) -> None:
        super().__init__(domain, target)
        self.encode = encode
        self.decode = decode

    @operation
    def read(self, offset: int, size: int) -> bytes:
        data = self.forward("read", offset, size)
        return self.decode(data)

    @operation
    def write(self, offset: int, data: bytes) -> int:
        return self.forward("write", offset, self.encode(data))

    @operation
    def bind(self, cache_manager, requested_access, offset, length) -> BindResult:
        self.record_local("bind", offset)
        raise PermissionDeniedError(
            "mapping denied: transform interposer covers read/write only"
        )


class WatchdogContext(NamingContext):
    """A naming context interposed over another context.

    "The interposer can then selectively intercept some name resolutions
    while passing the rest to the original context."  Interception rules
    map binding names to wrapper factories.
    """

    def __init__(self, domain, original: NamingContext) -> None:
        super().__init__(domain)
        self.original = original
        self._rules: Dict[str, Callable[[File], File]] = {}
        self.intercepted: List[str] = []

    def watch(self, name: str, make_wrapper: Callable[[File], File]) -> None:
        """Intercept resolutions of ``name``, wrapping the resolved file."""
        self._rules[name] = make_wrapper

    @operation
    def resolve(self, name: str) -> object:
        head = name.split("/", 1)[0].lstrip("/")
        resolved = self.original.resolve(name)
        rule = self._rules.get(head)
        if rule is None:
            return resolved
        target = narrow(resolved, File)
        if target is None:
            return resolved
        self.intercepted.append(name)
        self.world.counters.inc("watchdog.intercepted")
        return rule(target)

    @operation
    def bind(self, name: str, obj: object) -> None:
        self.original.bind(name, obj)

    @operation
    def unbind(self, name: str) -> object:
        return self.original.unbind(name)

    @operation
    def rebind(self, name: str, obj: object) -> object:
        return self.original.rebind(name, obj)

    @operation
    def list_bindings(self):
        return self.original.list_bindings()

    @operation
    def create_file(self, name: str) -> File:
        return self.original.create_file(name)


def interpose_on_name(
    parent: NamingContext, name: str, domain
) -> WatchdogContext:
    """The paper's name-space interposition recipe: resolve the context
    bound at ``name`` under ``parent``, and rebind a watchdog context
    implemented by ``domain`` in its place.

    The caller's domain must pass ``parent``'s ACL bind check — "the
    interposer has to be appropriately authenticated to be able to
    manipulate the name space".
    """
    original = parent.resolve(name)
    context = narrow(original, NamingContext)
    if context is None:
        raise PermissionDeniedError(f"{name!r} is not a context")
    watchdog = WatchdogContext(domain, context)
    parent.rebind(name, watchdog)
    return watchdog
