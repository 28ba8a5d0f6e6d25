"""Calibrated cost model.

Every latency parameter of the simulated testbed lives here so the
calibration is auditable in one place.  The constants are chosen so that
the *mechanisms* of the paper (invocation-path selection, per-layer open
state, disk-bound uncached I/O) produce Table 2 / Table 3's reported
shape; see DESIGN.md section 2 and EXPERIMENTS.md for paper-vs-measured.

Calibration anchors from the paper:

* Table 3 (SunOS 4.1.3): open 127 us, 4KB read 82 us, 4KB write 86 us,
  fstat 28 us.
* Table 2 (Spring SFS): 4KB cached write 0.16 ms; uncached write 13.7 ms
  (a 424 MB 4400 RPM disk); open overhead +39 % stacked-one-domain,
  +101 % stacked-two-domains; no measurable overhead on cached read /
  write / stat.
* "Spring is from 2 to 7 times slower than SunOS."
"""

from __future__ import annotations

import dataclasses
import sys
from functools import partial

from repro.sim.clock import SimClock
from repro.types import KB


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Latency parameters of the simulated node, in microseconds.

    The defaults model the paper's 40 MHz SPARCstation 10 with a 4400 RPM
    disk.  Benchmarks may construct variants (e.g. a faster disk for
    sensitivity ablations) — the model is frozen, bound at construction:
    a :class:`Charger` binds each fixed cost once, so a variant is a new
    model, never an edited one.
    """

    # --- invocation paths (paper sec. 6.4: "Our object invocation stub
    # technology automatically chooses the optimal path") -----------------
    local_call_us: float = 2.0          # two local procedure calls
    cross_domain_call_us: float = 107.0  # round-trip cross-domain call
    syscall_us: float = 25.0            # kernel trap (monolithic baseline)

    # --- network (for DFS / remote layers) -------------------------------
    network_rtt_us: float = 2000.0
    network_per_kb_us: float = 150.0

    # --- disk (424 MB, 4400 RPM: full rotation 13636 us) -----------------
    disk_seek_us: float = 6800.0
    disk_rotation_us: float = 13636.4   # one full rotation; avg latency = /2
    disk_xfer_per_kb_us: float = 20.0

    # --- CPU work inside file system layers ------------------------------
    memcpy_per_kb_us: float = 7.0       # copying data across an interface
    fs_resolve_us: float = 150.0        # directory lookup, i-node cache hit
    fs_open_state_us: float = 196.0     # per-layer open-file state creation
    fs_attr_copy_us: float = 60.0       # marshalling a file's attributes
    fs_access_check_us: float = 5.0     # permission check against an i-node
    fs_read_cpu_us: float = 30.0        # read bookkeeping in a layer
    fs_write_cpu_us: float = 25.0       # write bookkeeping in a layer
    vm_fault_us: float = 25.0           # page-fault handling in the VMM
    bind_us: float = 40.0               # channel lookup/creation bookkeeping
    name_cache_hit_us: float = 10.0     # resolve satisfied by name cache

    # --- data transformation layers --------------------------------------
    compress_per_kb_us: float = 400.0
    decompress_per_kb_us: float = 150.0
    encrypt_per_kb_us: float = 200.0
    decrypt_per_kb_us: float = 200.0

    def disk_io_us(self, nbytes: int) -> float:
        """Cost of one disk transfer of ``nbytes`` (seek + average
        rotational latency + media transfer)."""
        return (
            self.disk_seek_us
            + self.disk_rotation_us / 2.0
            + self.disk_xfer_per_kb_us * (nbytes / KB)
        )

    def network_transfer_us(self, nbytes: int) -> float:
        """Cost of one request/response exchange carrying ``nbytes``."""
        return self.network_rtt_us + self.network_per_kb_us * (nbytes / KB)

    def memcpy_us(self, nbytes: int) -> float:
        return self.memcpy_per_kb_us * (nbytes / KB)


#: Clock categories, interned once at import: ``SimClock.advance`` looks
#: up a category's account on every charge whose cost depends on a size,
#: and pre-interned keys make that lookup hash-and-compare by pointer
#: instead of by string content.
CPU = sys.intern("cpu")
DISK = sys.intern("disk")
NETWORK = sys.intern("network")
LOCAL_CALL = sys.intern("local_call")
CROSS_DOMAIN = sys.intern("cross_domain")
SYSCALL = sys.intern("syscall")

#: The charges of fixed cost and the category each is charged under:
#: the invocation paths (charged by the ipc layer, exposed for the
#: baselines), then CPU work in layers.
FIXED_CHARGES = {
    "local_call": LOCAL_CALL, "cross_domain_call": CROSS_DOMAIN,
    "syscall": SYSCALL, "fs_resolve": CPU, "fs_open_state": CPU,
    "fs_attr_copy": CPU, "fs_access_check": CPU, "fs_read_cpu": CPU,
    "fs_write_cpu": CPU, "vm_fault": CPU, "bind": CPU, "name_cache_hit": CPU,
}


class Charger:
    """Binds a :class:`CostModel` to a :class:`SimClock`.

    Layer implementations call ``charge.fs_resolve()`` etc.; each named
    charge advances the clock under a stable category so the harness can
    attribute virtual time (cpu vs disk vs cross_domain vs network).

    A charge of fixed cost (one of :data:`FIXED_CHARGES`) is bound once,
    here: ``functools.partial`` over the clock's ``charge`` with the
    model's ``<name>_us`` and the account of the charge's category, so
    calling one enters no Python frame but ``charge``'s, which neither
    checks the cost nor looks the category up: a negative or NaN fixed
    cost is refused here instead.  The model is frozen, so a bound
    constant cannot go stale.
    """

    __slots__ = ("clock", "model", "_charge", "_cpu", "_disk", "_network",
                 "_memcpy_per_kb_us", "_network_rtt_us", "_network_per_kb_us",
                 "_disk_fixed_us", "_disk_xfer_per_kb_us", *FIXED_CHARGES)

    def __init__(self, clock: SimClock, model: CostModel) -> None:
        self.clock = clock
        self.model = model
        self._charge = clock.charge
        self._memcpy_per_kb_us = model.memcpy_per_kb_us
        self._network_rtt_us = model.network_rtt_us
        self._network_per_kb_us = model.network_per_kb_us
        # The first addition of CostModel.disk_io_us, made once.
        self._disk_fixed_us = model.disk_seek_us + model.disk_rotation_us / 2.0
        self._disk_xfer_per_kb_us = model.disk_xfer_per_kb_us
        # Every account this charger charges is open before its first
        # charge, so no charge opens one; the variable charges below are
        # bound to theirs as the fixed ones are.
        self._network = clock.account(NETWORK)
        self._disk = clock.account(DISK)
        for name, category in FIXED_CHARGES.items():
            cost = getattr(model, f"{name}_us")
            if not cost >= 0:
                raise ValueError(f"{name}_us must be >= 0: {cost}")
            setattr(self, name, partial(clock.charge, cost, clock.account(category)))
        self._cpu = clock.account(CPU)

    # network, disk_io and memcpy compute the same float expressions as
    # CostModel.network_transfer_us, disk_io_us and memcpy_us:
    # bit-identical virtual time.  A size-dependent cost is checked per
    # charge, as ``SimClock.advance`` would, then charged straight to
    # its bound account: no category lookup.
    def network(self, nbytes: int = 0) -> None:
        cost = self._network_rtt_us + self._network_per_kb_us * (nbytes / KB)
        if not cost >= 0:
            raise ValueError(f"time charge must be >= 0: {cost}")
        self._charge(cost, self._network)

    def network_payload(self, nbytes: int) -> None:
        """Per-KB payload cost only, for a reply piggybacked on an
        already-charged round trip."""
        cost = self._network_per_kb_us * nbytes / KB
        if not cost >= 0:
            raise ValueError(f"time charge must be >= 0: {cost}")
        self._charge(cost, self._network)

    def disk_io(self, nbytes: int) -> None:
        cost = self._disk_fixed_us + self._disk_xfer_per_kb_us * (nbytes / KB)
        if not cost >= 0:
            raise ValueError(f"time charge must be >= 0: {cost}")
        self._charge(cost, self._disk)

    def memcpy(self, nbytes: int) -> None:
        cost = self._memcpy_per_kb_us * (nbytes / KB)
        if not cost >= 0:
            raise ValueError(f"time charge must be >= 0: {cost}")
        self._charge(cost, self._cpu)

    def compress(self, nbytes: int) -> None:
        self.clock.advance(self.model.compress_per_kb_us * nbytes / KB, CPU)

    def decompress(self, nbytes: int) -> None:
        self.clock.advance(self.model.decompress_per_kb_us * nbytes / KB, CPU)

    def encrypt(self, nbytes: int) -> None:
        self.clock.advance(self.model.encrypt_per_kb_us * nbytes / KB, CPU)

    def decrypt(self, nbytes: int) -> None:
        self.clock.advance(self.model.decrypt_per_kb_us * nbytes / KB, CPU)
