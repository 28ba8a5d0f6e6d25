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

Regenerate (only for a change that means to move a charge)::

    PYTHONPATH=src python -m tests.test_charge_pin
"""

import json
import pathlib

import pytest

from repro.bench.workloads import pattern_bytes
from repro.errors import FsError
from repro.types import PAGE_SIZE, AccessRights

from tests.test_layer_matrix import _stack

GOLDEN = pathlib.Path(__file__).parent / "golden" / "charge_pin.json"

KINDS = [
    "mirrorfs", "mono", "nullfs", "quotafs", "compfs", "cryptfs", "dfs-remote",
]


def _session(kind: str) -> dict:
    """Run the pinned session; returns ``{step: snapshot}`` in order."""
    root, user = _stack(kind)
    world = user.world
    table = {}
    last = {}

    def snap(step: str) -> None:
        # Cumulative values, but only of what moved during the step.
        now = {
            "categories": world.clock.categories(),
            "charge_counts": world.clock.charge_counts(),
            "counters": world.counters.snapshot(),
        }
        table[step] = {
            group: {
                key: value for key, value in sorted(values.items())
                if last.get(group, {}).get(key) != value
            }
            for group, values in now.items()
        }
        last.update(now)

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


@pytest.mark.parametrize("kind", KINDS)
def test_charge_sequence_matches_recorded_table(kind):
    recorded = json.loads(GOLDEN.read_text())[kind]
    fresh = _session(kind)
    assert list(fresh) == list(recorded)
    for step, snapshot in fresh.items():
        assert snapshot == recorded[step], f"{kind}: charges moved at {step!r}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({kind: _session(kind) for kind in KINDS}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}")
