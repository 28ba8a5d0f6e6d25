"""Ablation E — read-ahead and clustering (paper sec. 8).

"An interesting open problem is how to implement optimizations such as
read-ahead and clustering in a system that utilizes external pagers...
One approach we are currently investigating allows a cache manager to
convey to the pager the maximum and minimum amount of data required
during a page-in."

That approach is implemented (``page_in_range`` on the pager interface,
clustered multi-block device transfers in the disk layer, sequential
window policies in the VMM and coherency layer) and measured here: a
cold sequential scan of a 32-page file, cache-miss all the way to disk,
for several window sizes.
"""

import pytest

from benchmarks.conftest import print_banner
from repro.bench.harness import TableFormatter
from repro.fs.cryptfs import CryptFs
from repro.fs.sfs import create_sfs
from repro.ipc.domain import Credentials
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE, AccessRights
from repro.world import World

FILE_PAGES = 32


def _cold_scan(window: int):
    world = World()
    node = world.create_node("bench")
    device = BlockDevice(node.nucleus, "sd0", 8192)
    stack = create_sfs(node, device)
    stack.coherency_layer.readahead_pages = window
    user = world.create_user_domain(node)
    with user.activate():
        f = stack.top.create_file("scan.dat")
        f.write(0, b"s" * (FILE_PAGES * PAGE_SIZE))
        f.sync()
    state = next(iter(stack.coherency_layer._states.values()))
    state.store.clear()
    state.streams.reset()
    reads_before = device.reads
    with user.activate():
        handle = stack.top.resolve("scan.dat")
        start = world.clock.now_us
        for page in range(FILE_PAGES):
            handle.read(page * PAGE_SIZE, PAGE_SIZE)
        elapsed = world.clock.now_us - start
    return {
        "elapsed_ms": elapsed / 1000.0,
        "disk_transfers": device.reads - reads_before,
    }


def _stacked_scan(window: int):
    """Cold mapped scan through CRYPTFS stacked on SFS, read-ahead
    driven only by the VMM's window: the ranged page-ins must survive
    the encryption layer AND the coherency layer (whose own window
    stays 0) to reach the disk layer's clustering."""
    world = World()
    node = world.create_node("bench")
    device = BlockDevice(node.nucleus, "sd0", 8192)
    stack = create_sfs(node, device)
    crypt = CryptFs(
        node.create_domain("crypt", Credentials("crypt", privileged=True))
    )
    crypt.stack_on(stack.top)
    node.vmm.readahead_pages = window
    user = world.create_user_domain(node)
    payload = bytes((i // 13) % 256 for i in range(FILE_PAGES * PAGE_SIZE))
    with user.activate():
        f = crypt.create_file("scan.dat")
        f.write(0, payload)
        f.sync()
    # Cold caches: drop SFS's block cache and CRYPTFS's plaintext cache.
    state = next(iter(stack.coherency_layer._states.values()))
    state.store.clear()
    state.streams.reset()
    cstate = next(iter(crypt._states.values()))
    cstate.store.clear()
    reads_before = device.reads
    with user.activate():
        handle = crypt.resolve("scan.dat")
        mapping = node.vmm.create_address_space("scan").map(
            handle, AccessRights.READ_ONLY
        )
        start = world.clock.now_us
        got = b"".join(
            mapping.read(page * PAGE_SIZE, PAGE_SIZE)
            for page in range(FILE_PAGES)
        )
        elapsed = world.clock.now_us - start
    return {
        "elapsed_ms": elapsed / 1000.0,
        "disk_transfers": device.reads - reads_before,
        "correct": got == payload,
    }


@pytest.fixture(scope="module")
def ablation():
    results = {window: _cold_scan(window) for window in (0, 2, 4, 8, 16)}
    table = TableFormatter(
        f"Ablation E: cold sequential scan of {FILE_PAGES} pages",
        ["scan time", "disk transfers"],
    )
    for window, data in results.items():
        label = "no read-ahead" if window == 0 else f"window {window} pages"
        table.add_row(label, [data["elapsed_ms"] * 1000, data["disk_transfers"]])
    print_banner("Ablation: read-ahead / clustering", table.render())
    return results


class TestReadaheadAblation:
    def test_monotone_improvement(self, ablation):
        times = [ablation[w]["elapsed_ms"] for w in (0, 2, 4, 8, 16)]
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_window8_at_least_2x(self, ablation):
        assert ablation[8]["elapsed_ms"] < ablation[0]["elapsed_ms"] / 2

    def test_transfers_collapse(self, ablation):
        assert ablation[0]["disk_transfers"] >= FILE_PAGES
        assert ablation[8]["disk_transfers"] <= FILE_PAGES // 4 + 3

    def test_diminishing_returns(self, ablation):
        """Doubling 8 -> 16 buys less than 2 -> 4 did (seek cost is
        already amortized) — the classic clustering curve."""
        gain_small = ablation[2]["elapsed_ms"] - ablation[4]["elapsed_ms"]
        gain_large = ablation[8]["elapsed_ms"] - ablation[16]["elapsed_ms"]
        assert gain_large < gain_small


@pytest.fixture(scope="module")
def stacked():
    results = {window: _stacked_scan(window) for window in (0, 4, 8)}
    table = TableFormatter(
        f"Ablation E2: cold scan of {FILE_PAGES} pages through CRYPTFS",
        ["scan time", "disk transfers"],
    )
    for window, data in results.items():
        label = "no read-ahead" if window == 0 else f"VMM window {window}"
        table.add_row(label, [data["elapsed_ms"] * 1000, data["disk_transfers"]])
    print_banner("Ablation: read-ahead through a stacked layer", table.render())
    return results


class TestStackedReadahead:
    """The hint must *survive the stack*: only the VMM's window is set;
    CRYPTFS forwards the ranged page-in, the coherency layer prefetches
    the missing run (its own window stays 0), and the disk layer
    clusters the device transfer."""

    def test_window8_at_least_2x(self, stacked):
        assert stacked[8]["elapsed_ms"] < stacked[0]["elapsed_ms"] / 2

    def test_transfers_collapse_through_the_layer(self, stacked):
        assert stacked[0]["disk_transfers"] >= FILE_PAGES
        assert stacked[8]["disk_transfers"] <= FILE_PAGES // 4 + 3

    def test_data_correct_at_every_window(self, stacked):
        assert all(data["correct"] for data in stacked.values())


def test_bench_clustered_scan(benchmark, ablation):
    benchmark(lambda: _cold_scan(8))
