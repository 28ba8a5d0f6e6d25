"""Unit tests for the SunOS 4.1.3 baseline — functional behaviour and
the Table 3 calibration anchors."""

import pytest

from repro.baseline.sunos import SunOsCosts, SunOsFs
from repro.errors import UnixError
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE
from repro.world import World


@pytest.fixture
def sunos(world, node):
    device = BlockDevice(node.nucleus, "sd0", 8192)
    return SunOsFs(world, device)


class TestFunctional:
    def test_create_write_read(self, sunos):
        fd = sunos.open("f.dat", create=True)
        sunos.write(fd, b"hello sunos")
        sunos.pread(fd, 11, 0) == b"hello sunos"

    def test_sequential_position(self, sunos):
        fd = sunos.open("f.dat", create=True)
        sunos.write(fd, b"abc")
        sunos.write(fd, b"def")
        assert sunos.pread(fd, 6, 0) == b"abcdef"

    def test_open_missing(self, sunos):
        with pytest.raises(UnixError):
            sunos.open("ghost.dat")

    def test_nested_path(self, sunos):
        sunos.mkdir_p("usr/local")
        fd = sunos.open("usr/local/f.dat", create=True)
        sunos.write(fd, b"deep")
        assert sunos.pread(fd, 4, 0) == b"deep"

    def test_fstat(self, sunos, world):
        fd = sunos.open("f.dat", create=True)
        sunos.pwrite(fd, b"123", 0)
        assert sunos.fstat(fd).size == 3

    def test_fsync_persists(self, sunos):
        fd = sunos.open("f.dat", create=True)
        sunos.pwrite(fd, b"durable", 0)
        sunos.fsync(fd)
        from repro.storage.volume import Volume

        volume = Volume.mount(sunos.volume.device)
        ino = volume.lookup(volume.sb.root_ino, "f.dat")
        assert volume.read_data(ino, 0, 7) == b"durable"

    def test_close_invalidates_fd(self, sunos):
        fd = sunos.open("f.dat", create=True)
        sunos.close(fd)
        with pytest.raises(UnixError):
            sunos.pread(fd, 1, 0)


class TestTable3Calibration:
    """Exact reproduction of the paper's SunOS numbers."""

    @pytest.fixture
    def warm(self, sunos, world):
        fd = sunos.open("bench.dat", create=True)
        sunos.pwrite(fd, b"b" * PAGE_SIZE, 0)
        sunos.pread(fd, PAGE_SIZE, 0)
        return sunos, fd, world

    def _cost(self, world, op):
        before = world.clock.now_us
        op()
        return world.clock.now_us - before

    def test_open_127us(self, warm):
        fs, fd, world = warm
        assert self._cost(world, lambda: fs.open("bench.dat")) == 127.0

    def test_read_82us(self, warm):
        fs, fd, world = warm
        assert self._cost(world, lambda: fs.pread(fd, PAGE_SIZE, 0)) == 82.0

    def test_write_86us(self, warm):
        fs, fd, world = warm
        assert (
            self._cost(world, lambda: fs.pwrite(fd, b"w" * PAGE_SIZE, 0)) == 86.0
        )

    def test_fstat_28us(self, warm):
        fs, fd, world = warm
        assert self._cost(world, lambda: fs.fstat(fd)) == 28.0

    def test_spring_2_to_7_times_slower(self, warm, sfs_factory):
        """The paper's headline comparison holds in the reproduction."""
        fs, fd, world = warm
        sunos_costs = {
            "open": self._cost(world, lambda: fs.open("bench.dat")),
            "read": self._cost(world, lambda: fs.pread(fd, PAGE_SIZE, 0)),
            "write": self._cost(world, lambda: fs.pwrite(fd, b"w" * PAGE_SIZE, 0)),
            "stat": self._cost(world, lambda: fs.fstat(fd)),
        }
        node, stack = sfs_factory(placement="not_stacked")
        spring_world = node.world
        user = spring_world.create_user_domain(node)
        with user.activate():
            f = stack.top.create_file("bench.dat")
            f.write(0, b"b" * PAGE_SIZE)
            f.read(0, PAGE_SIZE)
            f.get_attributes()

            def cost(op):
                before = spring_world.clock.now_us
                op()
                return spring_world.clock.now_us - before

            spring_costs = {
                "open": cost(lambda: stack.top.resolve("bench.dat")),
                "read": cost(lambda: f.read(0, PAGE_SIZE)),
                "write": cost(lambda: f.write(0, b"w" * PAGE_SIZE)),
                "stat": cost(lambda: f.get_attributes()),
            }
        for op in sunos_costs:
            ratio = spring_costs[op] / sunos_costs[op]
            assert 1.8 <= ratio <= 7.5, (op, ratio)
