"""The on-disk format, pinned: the bytes a volume and an image file
hold, and the tables docs/ONDISK.md gives for them.

The hashes below were taken from images this format has always written.
A change to how a structure is declared or packed must leave every byte
where it was, or an image written before the change no longer mounts
after it.
"""

import hashlib
import pathlib
import re

import pytest

from repro.storage import FileType, ImageBlockStore, Volume, ondisk
from repro.storage.block_device import RamDevice
from repro.storage.blockstore import HEADER_SIZE
from repro.world import World

#: sha256 of every block of :func:`small_volume`'s device, by group count.
VOLUME_SHA256 = {
    1: "8afdf80939c5fc78bf80466c3ea19716c9f9ae826e7b0cbc02d64861f1dd2d26",
    4: "02cfb603f90215868b5e0c20f9cc6f03be077573f0bf8ea48e53ee736b5ca54b",
}
#: sha256 of the 4 096-byte header of a 512-block, 4 KiB-block image.
IMAGE_HEADER_SHA256 = (
    "6ce844f45bfecde19f017004fb4483561f0407b5a07620a7ea800d47bb33c1c0"
)


def small_volume(cylinder_groups):
    """mkfs a 512-block RAM volume, add a directory and a 60 000-byte
    file in it, unmount cleanly; returns the device."""
    device = RamDevice(World().create_node("n").nucleus, "ram", 512)
    volume = Volume.mkfs(device, inode_count=64, cylinder_groups=cylinder_groups)
    subdir = volume.create(volume.sb.root_ino, "d", FileType.DIRECTORY).ino
    ino = volume.create(subdir, "f", FileType.REGULAR).ino
    volume.write_data(ino, 0, bytes(range(256)) * 234 + bytes(96))
    volume.unmount()
    return device


class TestImageBytesPinned:
    @pytest.mark.parametrize("cylinder_groups", sorted(VOLUME_SHA256))
    def test_volume_blocks(self, cylinder_groups):
        device = small_volume(cylinder_groups)
        digest = hashlib.sha256()
        for index in range(device.num_blocks):
            digest.update(device.peek(index))
        assert digest.hexdigest() == VOLUME_SHA256[cylinder_groups]

    def test_image_header(self, tmp_path):
        path = tmp_path / "pin.img"
        ImageBlockStore.create(str(path), 512, 4096).close()
        header = path.read_bytes()[:HEADER_SIZE]
        assert hashlib.sha256(header).hexdigest() == IMAGE_HEADER_SHA256


ONDISK_MD = pathlib.Path(__file__).resolve().parent.parent / "docs" / "ONDISK.md"
#: A table of docs/ONDISK.md: the paragraph naming its ``ondisk``
#: structure, a blank line, the header, the rule, then one row per line.
DOC_TABLE = re.compile(
    r"`ondisk\.(\w+)`.*\n(?:.+\n)*\n\| field \| code \| note \|\n\|[-|]+\|\n((?:\|.*\n)+)"
)


def test_ondisk_md_lists_the_rows_of_every_structure():
    tables = {
        name: [tuple(cell.strip().strip("`") for cell in row.split("|")[1:3])
               for row in body.splitlines()]
        for name, body in DOC_TABLE.findall(ONDISK_MD.read_text())
    }
    structures = ("IMAGE_HEADER", "SUPERBLOCK", "INODE", "DIRECTORY_ENTRY")
    assert tables == {name: list(getattr(ondisk, name).rows) for name in structures}
