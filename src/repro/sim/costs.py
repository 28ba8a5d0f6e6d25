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

from repro.sim.clock import SimClock
from repro.types import KB


@dataclasses.dataclass
class CostModel:
    """Latency parameters of the simulated node, in microseconds.

    The defaults model the paper's 40 MHz SPARCstation 10 with a 4400 RPM
    disk.  Benchmarks may construct variants (e.g. a faster disk for
    sensitivity ablations) — the model is plain data.
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

    # --- server-slot queues (concurrent mode; see repro.sim.scheduler) ---
    #: Server-side handling time a request occupies one server slot for
    #: (demultiplex, dispatch, context switch) — the service time of a
    #: node's request queue under load.
    server_service_us: float = 500.0
    #: Additional per-KB slot occupancy for payload-carrying requests.
    server_service_per_kb_us: float = 25.0

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

    def server_service_time_us(self, nbytes: int) -> float:
        """Time one request carrying ``nbytes`` occupies a server slot
        (the service time of the node's request queue — see
        :meth:`repro.ipc.node.Node.install_server_queue`)."""
        return self.server_service_us + self.server_service_per_kb_us * (nbytes / KB)


#: Clock categories, interned once at import: ``SimClock.advance`` runs
#: on every single charge (2k+ times in a toy macro workload), and
#: pre-interned keys make the per-category dict updates hash-and-compare
#: by pointer instead of by string content.
CPU = sys.intern("cpu")
DISK = sys.intern("disk")
NETWORK = sys.intern("network")
LOCAL_CALL = sys.intern("local_call")
CROSS_DOMAIN = sys.intern("cross_domain")
SYSCALL = sys.intern("syscall")
#: Queue-wait category charged by a node's server-slot queue under the
#: scheduler (repro.sim.scheduler.ServiceQueue): time a request spent
#: waiting for a server slot, as opposed to being serviced.
SERVER_QUEUE_WAIT = sys.intern("server_queue_wait")


class Charger:
    """Binds a :class:`CostModel` to a :class:`SimClock`.

    Layer implementations call ``charge.fs_resolve()`` etc.; each named
    charge advances the clock under a stable category so the harness can
    attribute virtual time (cpu vs disk vs cross_domain vs network).
    """

    __slots__ = ("clock", "model", "_advance", "_memcpy_per_kb_us")

    def __init__(self, clock: SimClock, model: CostModel) -> None:
        self.clock = clock
        self.model = model
        # The hottest charges run once per simulated load/store; resolve
        # the clock's advance and the per-KB constant once instead of
        # three attribute hops per call.
        self._advance = clock.advance
        self._memcpy_per_kb_us = model.memcpy_per_kb_us

    # Invocation paths — charged by the ipc layer, exposed for baselines.
    def local_call(self) -> None:
        self.clock.advance(self.model.local_call_us, LOCAL_CALL)

    def cross_domain_call(self) -> None:
        self.clock.advance(self.model.cross_domain_call_us, CROSS_DOMAIN)

    def syscall(self) -> None:
        self.clock.advance(self.model.syscall_us, SYSCALL)

    def network(self, nbytes: int = 0) -> None:
        self.clock.advance(self.model.network_transfer_us(nbytes), NETWORK)

    def network_payload(self, nbytes: int) -> None:
        """Per-KB payload cost only, for a reply piggybacked on an
        already-charged round trip."""
        self.clock.advance(self.model.network_per_kb_us * nbytes / KB, NETWORK)

    def disk_io(self, nbytes: int) -> None:
        self.clock.advance(self.model.disk_io_us(nbytes), DISK)

    # CPU work in layers.
    def memcpy(self, nbytes: int) -> None:
        # Same float expression as CostModel.memcpy_us — bit-identical
        # virtual time, minus the method call and attribute chain.
        self._advance(self._memcpy_per_kb_us * (nbytes / KB), CPU)

    def fs_resolve(self) -> None:
        self.clock.advance(self.model.fs_resolve_us, CPU)

    def fs_open_state(self) -> None:
        self.clock.advance(self.model.fs_open_state_us, CPU)

    def fs_attr_copy(self) -> None:
        self.clock.advance(self.model.fs_attr_copy_us, CPU)

    def fs_access_check(self) -> None:
        self.clock.advance(self.model.fs_access_check_us, CPU)

    def fs_read_cpu(self) -> None:
        self.clock.advance(self.model.fs_read_cpu_us, CPU)

    def fs_write_cpu(self) -> None:
        self.clock.advance(self.model.fs_write_cpu_us, CPU)

    def vm_fault(self) -> None:
        self._advance(self.model.vm_fault_us, CPU)

    def bind(self) -> None:
        self.clock.advance(self.model.bind_us, CPU)

    def name_cache_hit(self) -> None:
        self.clock.advance(self.model.name_cache_hit_us, CPU)

    def compress(self, nbytes: int) -> None:
        self.clock.advance(self.model.compress_per_kb_us * nbytes / KB, CPU)

    def decompress(self, nbytes: int) -> None:
        self.clock.advance(self.model.decompress_per_kb_us * nbytes / KB, CPU)

    def encrypt(self, nbytes: int) -> None:
        self.clock.advance(self.model.encrypt_per_kb_us * nbytes / KB, CPU)

    def decrypt(self, nbytes: int) -> None:
        self.clock.advance(self.model.decrypt_per_kb_us * nbytes / KB, CPU)
