"""QUOTAFS — a policy layer enforcing byte quotas (extension).

Demonstrates the remaining class of layers the architecture supports:
*policy* layers that neither transform nor replicate data, but restrict
operations — the "extended file attributes" family from the paper's
introduction.  QUOTAFS tracks the bytes stored under it and rejects
writes/extensions that would exceed a configured budget.

Accounting notes:

* usage is tracked by file length deltas, the same quantity the
  attribute-coherency machinery carries, so a quota layer composes with
  any underlying stack;
* mappings are granted read-only unless the quota has headroom for the
  mapped range — a writable mapping could otherwise bypass the check
  (same reasoning as TransformFile denying mappings, sec. 5).

As a layer it is the generic pass-through plus three interceptions on
the file face (bind / write / set_length) and a refunding unlink — one
override of the ``unbind_in`` hook, which the naming face runs on the
root and on every directory.
"""

from __future__ import annotations

from repro.errors import FsError, NoSpaceError
from repro.ipc.invocation import operation
from repro.ipc.narrow import narrow
from repro.types import AccessRights
from repro.vm.channel import BindResult
from repro.vm.memory_object import CacheManager

from repro.fs.base import BaseLayer, ForwardingFile, LayerDirectory
from repro.fs.file import File


class QuotaExceededError(NoSpaceError):
    """The write would exceed the layer's byte budget (EDQUOT)."""


class QuotaFile(ForwardingFile):
    @operation
    def bind(
        self,
        cache_manager: CacheManager,
        requested_access: AccessRights,
        offset: int,
        length: int,
    ) -> BindResult:
        if requested_access.writable and self.layer.remaining() <= 0:
            raise QuotaExceededError(
                "writable mapping denied: quota exhausted"
            )
        return self.state.under_file.bind(
            cache_manager, requested_access, offset, length
        )

    @operation
    def set_length(self, length: int) -> None:
        old = self.state.under_file.get_length()
        self.layer.charge_growth(length - old)
        self.state.under_file.set_length(length)

    @operation
    def write(self, offset: int, data: bytes) -> int:
        old = self.state.under_file.get_length()
        growth = max(0, offset + len(data) - old)
        self.layer.charge_growth(growth)
        return self.state.under_file.write(offset, data)


class QuotaDirectory(LayerDirectory):
    """A pass-through directory; the refund is the layer's ``unbind_in``."""


class QuotaFs(BaseLayer):
    """See module docstring."""

    file_class = QuotaFile
    directory_class = QuotaDirectory

    def __init__(self, domain, budget_bytes: int) -> None:
        super().__init__(domain)
        if budget_bytes < 0:
            raise FsError("quota budget must be non-negative")
        self.budget_bytes = budget_bytes
        self.used_bytes = 0

    def fs_type(self) -> str:
        return "quotafs"

    # --- accounting -----------------------------------------------------
    def remaining(self) -> int:
        return self.budget_bytes - self.used_bytes

    def charge_growth(self, delta: int) -> None:
        """Account a length change; rejects growth past the budget.
        Shrinkage refunds."""
        if delta > 0 and self.used_bytes + delta > self.budget_bytes:
            self.world.counters.inc("quotafs.denied")
            raise QuotaExceededError(
                f"quota exceeded: used {self.used_bytes} + {delta} > "
                f"budget {self.budget_bytes}"
            )
        self.used_bytes += delta
        if self.used_bytes < 0:
            self.used_bytes = 0

    def unbind_in(self, context, name: str):
        """Unlink with refund: credit the removed file's bytes."""
        try:
            target = context.resolve(name)
        except Exception:
            target = None
        under_file = narrow(target, File)
        size = under_file.get_length() if under_file is not None else 0
        result = context.unbind(name)
        self.charge_growth(-size)
        return result
