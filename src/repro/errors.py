"""Exception hierarchy for the Spring extensible file system reproduction.

Spring interfaces are strongly typed contracts whose operations "raise
exceptions when errors are encountered" (paper, Appendix A).  Every error
raised by this library derives from :class:`SpringError` so callers can
catch library failures without masking programming errors.
"""

from __future__ import annotations


class SpringError(Exception):
    """Base class for all errors raised by the repro library."""


class InvocationError(SpringError):
    """An object invocation could not be carried out."""


class TransientNetworkError(InvocationError):
    """A cross-node invocation failed for a reason that may heal with
    time: a partitioned link, a crashed-but-recovering node, a dropped
    message.  :class:`repro.ipc.retry.RetryPolicy` retries exactly this
    family; permanent failures (revocation, bad arguments) never match.
    """


class NodeCrashedError(TransientNetworkError):
    """The source or destination node of a message is crashed (see
    :meth:`repro.ipc.node.Node.crash`).  Heals when the node recovers."""


class MessageDroppedError(TransientNetworkError):
    """The fault plane dropped this message in flight (scheduled or
    probabilistic drop); the sender sees a timeout and may retry."""


class RevokedObjectError(InvocationError):
    """The target object's server has destroyed or revoked the object."""


class NarrowError(SpringError):
    """An object could not be narrowed to the requested interface."""


class NamingError(SpringError):
    """Base class for naming-system errors."""


class NameNotFoundError(NamingError):
    """A name did not resolve in the context it was looked up in."""


class NameAlreadyBoundError(NamingError):
    """A bind was attempted for a name that is already bound."""


class NotAContextError(NamingError):
    """A compound-name component resolved to a non-context object."""


class InvalidNameError(NamingError):
    """A name was syntactically invalid (empty, or illegal component)."""


class PermissionDeniedError(SpringError):
    """The calling domain's credentials fail the target's ACL check."""


class VmError(SpringError):
    """Base class for virtual-memory errors."""


class ChannelClosedError(VmError):
    """An operation was attempted on a torn-down pager-cache channel."""


class OutOfRangeError(VmError):
    """An offset/length pair falls outside the memory object."""


class StorageError(SpringError):
    """Base class for storage-substrate errors."""


class DeviceError(StorageError):
    """A block-device transfer failed (bad block number, bad size)."""


class NoSpaceError(StorageError):
    """The device or file system has no free blocks or i-nodes."""


class FsError(SpringError):
    """Base class for file-system-layer errors."""


class FileNotFoundError_(FsError):
    """A file lookup failed.  Named with a trailing underscore to avoid
    shadowing the Python builtin while staying recognisable."""


class FileExistsError_(FsError):
    """A create collided with an existing file."""


class NotADirectoryError_(FsError):
    """A path component was a regular file."""


class IsADirectoryError_(FsError):
    """A file operation was attempted on a directory."""


class DirectoryNotEmptyError(FsError):
    """remove() of a non-empty directory."""


class StaleFileError(FsError):
    """The file was removed underneath an open handle."""


class StackingError(FsError):
    """An illegal stack_on() composition (wrong type, too many layers,
    layer already stacked)."""


class ReadOnlyError(FsError):
    """A write was attempted through a read-only handle or layer."""


class UnixError(SpringError):
    """POSIX-facade error carrying an errno-style symbolic code."""

    def __init__(self, code: str, message: str = ""):
        self.code = code
        super().__init__(f"[{code}] {message}" if message else code)
