"""Charge-sequence pin for the layer paths the Table 2/3 goldens do not
reach: MirrorFs, the monolithic baseline, the pass-through and transform
layers, and a remote DFS mount.

One session per kind — create, write, read, a dirty mapping so the
recall paths have something to recall, truncate into a page, list, the
same again inside a subdirectory, rename, unlink — and after every step
the virtual clock's per-category totals, its charge counts and every
counter (``invoke.*``, ``op.*`` and the layers' own) must equal the
committed table.  The table was recorded at the commit before the
naming face, the recall-then-act protocol and MirrorFs were folded into
the runtime, so it is the referee for "no charge change".

The knob sessions (``KNOB_SESSIONS``) add what no default-knob session
reaches — sequential read-ahead at the VMM and the coherency layer
(mapped and through ``File.read``, plain and through CRYPTFS),
write-back of a multi-run dirty mapping (``sync_all``,
``VmCache.flush``, ``file_sync``), eviction of dirty pages under
``capacity_pages``, a two-holder DFS recall whose pages go below as a
one-page and a three-page run (``compound`` off and on), the window
clamps of the uncached coherency layer and COMPFS, and CRYPTFS over a
layer that refuses its channel.  They were recorded at the commit before the cache
manager's half of the channel was folded into one per-source cache.

Regenerate (only for a change that means to move a charge)::

    PYTHONPATH=src python -m tests.test_charge_pin

Dry run first — ``--diff`` prints every cumulative value that differs
from the committed table and writes nothing; ``--fold OLD=NEW`` sums a
renamed counter into its new key on both sides before comparing::

    PYTHONPATH=src python -m tests.test_charge_pin --diff \\
        --fold op.read_blocks=op.read_block
"""

import json
import pathlib

import pytest

from repro.bench.workloads import pattern_bytes
from repro.errors import FsError
from repro.fs.cryptfs import CryptFs
from repro.fs.dfs import export_dfs, mount_remote
from repro.fs.sfs import create_sfs
from repro.ipc.domain import Credentials
from repro.storage.block_device import RamDevice
from repro.types import PAGE_SIZE, AccessRights
from repro.world import World

from tests.test_layer_matrix import _stack

GOLDEN = pathlib.Path(__file__).parent / "golden" / "charge_pin.json"

KINDS = [
    "mirrorfs", "mono", "nullfs", "quotafs", "compfs", "cryptfs", "dfs-remote",
]


class _Pin:
    """The table a session fills: after every step, what moved."""

    def __init__(self, world) -> None:
        self.world = world
        self.table = {}
        self._last = {}

    def snap(self, step: str) -> None:
        # Cumulative values, but only of what moved during the step.
        world = self.world
        now = {
            "categories": world.clock.categories(),
            "charge_counts": world.clock.charge_counts(),
            "counters": world.counters.snapshot(),
        }
        self.table[step] = {
            group: {
                key: value for key, value in sorted(values.items())
                if self._last.get(group, {}).get(key) != value
            }
            for group, values in now.items()
        }
        self._last.update(now)


def _session(kind: str) -> dict:
    """Run the pinned session; returns ``{step: snapshot}`` in order."""
    root, user = _stack(kind)
    pin = _Pin(user.world)
    snap = pin.snap
    table = pin.table

    payload = pattern_bytes(2 * PAGE_SIZE + 123, tag=3)
    renames = kind != "mirrorfs"  # mirrorfs has no rename
    with user.activate():
        snap("start")
        f = root.create_file("a.bin")
        snap("create")
        f.write(0, payload)
        snap("write")
        assert f.read(0, len(payload)) == payload
        snap("read")
        try:
            user.node.vmm.create_address_space("pin").map(
                f, AccessRights.READ_WRITE
            ).write(PAGE_SIZE - 8, b"M" * 16)
        except FsError:
            pass  # mirrorfs refuses writable mappings
        snap("map_dirty")
        f.read(0, len(payload))
        snap("read_recall")
        f.write(10, b"xyz")
        snap("write_recall")
        f.set_length(PAGE_SIZE + 100)
        snap("truncate")
        assert f.get_attributes().size == PAGE_SIZE + 100
        f.sync()
        snap("stat_sync")
        assert [name for name, _ in root.list_bindings()] == ["a.bin"]
        snap("list")

        sub = root.create_dir("sub")
        snap("mkdir")
        g = sub.create_file("b.bin")
        g.write(0, b"in the subdirectory")
        snap("sub_create_write")
        assert sub.resolve("b.bin").read(0, 6) == b"in the"
        assert root.resolve("sub/b.bin").get_length() == 19
        snap("sub_resolve")
        assert [name for name, _ in sub.list_bindings()] == ["b.bin"]
        snap("sub_list")
        if renames:
            sub.rename("b.bin", "c.bin")
            root.rename("a.bin", "z.bin")
        snap("rename")
        sub.unbind("c.bin" if renames else "b.bin")
        snap("sub_unlink")
        root.unbind("z.bin" if renames else "a.bin")
        root.unbind("sub")
        snap("unlink")
    return table



def _cold_file(root, user, name: str, pages: int):
    """A ``pages``-page file written through ``root`` and synced, with
    every layer cache between ``root`` and the disk dropped."""
    with user.activate():
        f = root.create_file(name)
        f.write(0, pattern_bytes(pages * PAGE_SIZE, tag=5))
        f.sync()
        root.sync_fs()
    layer = root
    while True:
        for state in layer._states.values():
            for attr in ("store", "plain"):
                if hasattr(state, attr):
                    getattr(state, attr).clear()
            if hasattr(state, "streams"):
                state.streams.reset()
            if hasattr(state, "plain_size"):
                state.plain_size = None  # compfs: plaintext not loaded
        if not layer.under_layers():
            return f
        layer = layer.under


def _readahead_session(kind: str, mapped: bool) -> dict:
    """A cold 16-page sequential scan with a 4-page window at the VMM
    and at the coherency layer, one step per page; then the same file
    cold again in one 16-page read."""
    if kind == "sfs-uncached":
        world = World()
        node = world.create_node("pin")
        root = create_sfs(node, RamDevice(node.nucleus, "ram", 16384), cache=False).top
        user = world.create_user_domain(node)
    else:
        root, user = _stack(kind)
    pin = _Pin(user.world)
    coherency = root if kind.startswith("sfs") else root.under
    f = _cold_file(root, user, "scan.bin", 16)
    user.node.vmm.readahead_pages = 4
    coherency.readahead_pages = 4
    expected = pattern_bytes(16 * PAGE_SIZE, tag=5)
    with user.activate():
        pin.snap("start")
        if mapped:
            reader = user.node.vmm.create_address_space("pin").map(
                f, AccessRights.READ_ONLY
            )
            pin.snap("map")
        else:
            reader = f
        for page in range(16):
            got = reader.read(page * PAGE_SIZE, PAGE_SIZE)
            assert bytes(got) == expected[page * PAGE_SIZE : (page + 1) * PAGE_SIZE]
            pin.snap(f"page_{page:02d}")
    g = _cold_file(root, user, "whole.bin", 16)
    with user.activate():
        pin.snap("second_file")
        assert g.read(0, 16 * PAGE_SIZE) == expected
        pin.snap("whole_read")
    return pin.table


def _dirty_runs(mapping) -> None:
    """Dirty pages 0-2 and 5-6: two runs, a clean gap between."""
    for page in (0, 1, 2, 5, 6):
        mapping.write(page * PAGE_SIZE + 7, b"D" * 9)


def _writeback_session() -> dict:
    """A multi-run dirty mapping written back every way the VMM and the
    coherency layer do it; then a write scan under ``capacity_pages``
    that evicts dirty pages."""
    root, user = _stack("sfs")
    pin = _Pin(user.world)
    vmm = user.node.vmm
    f = _cold_file(root, user, "wb.bin", 8)
    with user.activate():
        pin.snap("start")
        mapping = vmm.create_address_space("pin").map(f, AccessRights.READ_WRITE)
        _dirty_runs(mapping)
        pin.snap("dirty")
        assert vmm.sync_all() == 5
        pin.snap("sync_all")
        f.sync()
        pin.snap("file_sync")
        _dirty_runs(mapping)
        pin.snap("dirty_again")
        assert mapping.cache.flush() == 5
        pin.snap("flush")
        f.sync()
        pin.snap("file_sync_again")

    g = _cold_file(root, user, "evict.bin", 12)
    vmm.capacity_pages = 4
    vmm.readahead_pages = 2
    with user.activate():
        pin.snap("second_file")
        scan = vmm.create_address_space("pin2").map(g, AccessRights.READ_WRITE)
        for page in range(12):
            scan.write(page * PAGE_SIZE + 3, b"E" * 5)
            if page % 4 == 3:
                pin.snap(f"evict_through_{page:02d}")
        assert vmm.resident_pages() <= 4
        vmm.sync_all()
        g.sync()
        pin.snap("evict_sync")
    return pin.table


def _two_holder_recall_session(compound: bool) -> dict:
    """Two remote clients hold pages of one DFS file; what the DFS layer
    recalls goes below as a one-page run and a three-page run."""
    root, user = _stack("sfs")
    world = user.world
    server = user.node
    pin = _Pin(world)
    with user.activate():
        root.create_file("shared.bin").write(
            0, pattern_bytes(6 * PAGE_SIZE, tag=9)
        )
    dfs = export_dfs(server, root, compound=compound)
    clients = []
    for name in ("alpha", "beta"):
        node = world.create_node(name)
        mount_remote(node, server, "dfs")
        clients.append((node, world.create_user_domain(node, f"{name}-user")))
    (alpha, alpha_user), (beta, beta_user) = clients

    def remote(node):
        return node.fs_context.resolve(f"dfs@{server.name}").resolve("shared.bin")

    pin.snap("start")
    with alpha_user.activate():
        writer = alpha.vmm.create_address_space("a").map(
            remote(alpha), AccessRights.READ_WRITE
        )
        for page in (0, 2, 3, 4):
            writer.write(page * PAGE_SIZE + 11, b"A" * 6)
    pin.snap("alpha_dirty")
    with beta_user.activate():
        reader = beta.vmm.create_address_space("b").map(
            remote(beta), AccessRights.READ_ONLY
        )
        assert bytes(reader.read(PAGE_SIZE, 4)) == pattern_bytes(
            6 * PAGE_SIZE, tag=9
        )[PAGE_SIZE : PAGE_SIZE + 4]
    pin.snap("beta_reads_clean_page")
    with user.activate():
        data = dfs.resolve("shared.bin").read(0, 6 * PAGE_SIZE)
    assert data[11:17] == data[2 * PAGE_SIZE + 11 : 2 * PAGE_SIZE + 17] == b"A" * 6
    pin.snap("server_read_recalls_runs")
    with alpha_user.activate():
        for page in (0, 2, 3, 4):
            writer.write(page * PAGE_SIZE + 21, b"B" * 6)
    pin.snap("alpha_dirty_again")
    with beta_user.activate():
        assert bytes(reader.read(2 * PAGE_SIZE + 21, 6)) == b"B" * 6
    pin.snap("beta_read_recalls_page")
    with user.activate():
        dfs.resolve("shared.bin").write(0, b"S" * (5 * PAGE_SIZE))
    pin.snap("server_write_recalls_all")
    return pin.table


def _cryptfs_refused_session() -> dict:
    """CRYPTFS over MirrorFs, which refuses the writable bind: every
    block goes through the plain file interface."""
    mirror, user = _stack("mirrorfs")
    pin = _Pin(user.world)
    crypt = CryptFs(
        user.node.create_domain("crypt", Credentials("crypt", True)), key=b"pin"
    )
    crypt.stack_on(mirror)
    payload = pattern_bytes(3 * PAGE_SIZE + 50, tag=4)
    with user.activate():
        pin.snap("start")
        f = crypt.create_file("sealed.bin")
        f.write(0, payload)
        pin.snap("write")
        assert f.read(0, len(payload)) == payload
        pin.snap("read")
        for state in crypt._states.values():
            state.plain.clear()
        assert f.read(0, len(payload)) == payload
        pin.snap("cold_read")
        f.write(PAGE_SIZE - 4, b"straddle")
        f.sync()
        pin.snap("write_sync")
    return pin.table


KNOB_SESSIONS = {
    "sfs+readahead-mapped": lambda: _readahead_session("sfs", mapped=True),
    "sfs+readahead-file": lambda: _readahead_session("sfs", mapped=False),
    "cryptfs+readahead-mapped": lambda: _readahead_session("cryptfs", mapped=True),
    "cryptfs+readahead-file": lambda: _readahead_session("cryptfs", mapped=False),
    "sfs+writeback-batched": _writeback_session,
    "sfs-uncached+readahead-mapped": lambda: _readahead_session(
        "sfs-uncached", mapped=True
    ),
    "compfs+readahead-mapped": lambda: _readahead_session("compfs", mapped=True),
    "dfs+two-holder-recall": lambda: _two_holder_recall_session(compound=False),
    "dfs+two-holder-recall-compound": lambda: _two_holder_recall_session(
        compound=True
    ),
    "cryptfs+channel-refused": _cryptfs_refused_session,
}


def _run(kind: str) -> dict:
    return KNOB_SESSIONS[kind]() if kind in KNOB_SESSIONS else _session(kind)


@pytest.mark.parametrize("kind", KINDS + list(KNOB_SESSIONS))
def test_charge_sequence_matches_recorded_table(kind):
    recorded = json.loads(GOLDEN.read_text())[kind]
    fresh = _run(kind)
    assert list(fresh) == list(recorded)
    for step, snapshot in fresh.items():
        assert snapshot == recorded[step], f"{kind}: charges moved at {step!r}"


def _cumulative(table: dict, folds: dict) -> dict:
    """``{step: {group: {key: cumulative value}}}`` of a session table
    (which records per step only what moved), after summing every key
    that ends with a ``folds`` suffix into the key with that suffix
    replaced."""
    running, out = {}, {}
    for step, snapshot in table.items():
        out[step] = {}
        for group, moved in snapshot.items():
            values = running.setdefault(group, {})
            values.update(moved)
            folded = out[step][group] = {}
            for key, value in values.items():
                for old, new in folds.items():
                    if key.endswith(old):
                        key = key[: len(key) - len(old)] + new
                        break
                folded[key] = folded.get(key, 0) + value
    return out


def test_cumulative_carries_values_forward_and_folds_suffixes():
    table = {
        "a": {"counters": {"op.read_blocks": 2, "op.read_block": 1, "x": 5}},
        "b": {"counters": {"op.read_block": 4}},
    }
    folded = _cumulative(table, {"op.read_blocks": "op.read_block"})
    assert folded["a"]["counters"] == {"op.read_block": 3, "x": 5}
    assert folded["b"]["counters"] == {"op.read_block": 6, "x": 5}


def diff_against_golden(folds: dict) -> list:
    """Dry run of the regeneration: one line per session / step / group
    / key whose cumulative value differs from the committed table."""
    golden = json.loads(GOLDEN.read_text())
    lines = []
    for kind in KINDS + list(KNOB_SESSIONS):
        recorded = _cumulative(golden.get(kind, {}), folds)
        fresh = _cumulative(_run(kind), folds)
        for step in dict.fromkeys([*recorded, *fresh]):
            was, now = recorded.get(step), fresh.get(step)
            if was is None or now is None:
                lines.append(f"{kind} / {step}: {'added' if was is None else 'gone'}")
                continue
            for group in now:
                for key in sorted({*was[group], *now[group]}):
                    a, b = was[group].get(key, 0), now[group].get(key, 0)
                    if a != b:
                        lines.append(f"{kind} / {step} / {group} / {key}: {a} -> {b}")
    return lines


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--diff", action="store_true",
        help="print what differs from the committed table; write nothing",
    )
    parser.add_argument(
        "--fold", nargs="*", default=[], metavar="OLD=NEW",
        help="with --diff: on both sides, sum keys ending in OLD into the "
        "key ending in NEW (e.g. op.read_blocks=op.read_block)",
    )
    args = parser.parse_args(argv)
    if args.diff:
        lines = diff_against_golden(dict(f.split("=", 1) for f in args.fold))
        print("\n".join(lines) if lines else "charge pin: no differences")
        return 1 if lines else 0
    GOLDEN.write_text(
        json.dumps(
            {kind: _run(kind) for kind in KINDS + list(KNOB_SESSIONS)}, indent=1
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
