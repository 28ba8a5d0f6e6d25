"""Unit tests for the POSIX facade."""

import pytest

from repro.errors import OutOfRangeError, UnixError
from repro.unix import (
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_TRUNC,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    Posix,
)


@pytest.fixture
def posix(sfs, user):
    return Posix(sfs.top, user)


class TestOpenClose:
    def test_create_and_open(self, posix):
        fd = posix.open("new.txt", O_RDWR | O_CREAT)
        assert fd >= 3
        posix.close(fd)
        assert posix.open_fds() == 0

    def test_open_missing_without_creat(self, posix):
        with pytest.raises(UnixError) as err:
            posix.open("ghost.txt")
        assert err.value.code == "ENOENT"

    def test_open_existing_with_creat_reuses(self, posix):
        fd1 = posix.open("same.txt", O_RDWR | O_CREAT)
        posix.write(fd1, b"body")
        posix.close(fd1)
        fd2 = posix.open("same.txt", O_RDWR | O_CREAT)
        assert posix.fstat(fd2).size == 4

    def test_trunc(self, posix):
        fd = posix.open("t.txt", O_RDWR | O_CREAT)
        posix.write(fd, b"0123456789")
        posix.close(fd)
        fd = posix.open("t.txt", O_RDWR | O_TRUNC)
        assert posix.fstat(fd).size == 0

    def test_bad_fd(self, posix):
        with pytest.raises(UnixError) as err:
            posix.read(99, 10)
        assert err.value.code == "EBADF"

    def test_close_twice(self, posix):
        fd = posix.open("x.txt", O_RDWR | O_CREAT)
        posix.close(fd)
        with pytest.raises(UnixError):
            posix.close(fd)

    def test_fds_independent_positions(self, posix):
        fd1 = posix.open("p.txt", O_RDWR | O_CREAT)
        posix.write(fd1, b"abcdef")
        fd2 = posix.open("p.txt", O_RDONLY)
        assert posix.read(fd2, 3) == b"abc"
        assert posix.read(fd2, 3) == b"def"
        posix.lseek(fd1, 0)
        assert posix.read(fd1, 2) == b"ab"


class TestReadWrite:
    def test_sequential_io(self, posix):
        fd = posix.open("seq.txt", O_RDWR | O_CREAT)
        posix.write(fd, b"hello ")
        posix.write(fd, b"world")
        posix.lseek(fd, 0)
        assert posix.read(fd, 11) == b"hello world"

    def test_read_on_writeonly_fd(self, posix):
        fd = posix.open("w.txt", O_WRONLY | O_CREAT)
        with pytest.raises(UnixError):
            posix.read(fd, 1)

    def test_write_on_readonly_fd(self, posix):
        posix.open("r.txt", O_RDWR | O_CREAT)
        fd = posix.open("r.txt", O_RDONLY)
        with pytest.raises(UnixError):
            posix.write(fd, b"x")

    def test_pread_pwrite_ignore_position(self, posix):
        fd = posix.open("p.txt", O_RDWR | O_CREAT)
        posix.write(fd, b"0123456789")
        assert posix.pread(fd, 3, 4) == b"456"
        posix.pwrite(fd, b"XY", 2)
        posix.lseek(fd, 0)
        assert posix.read(fd, 10) == b"01XY456789"

    def test_append_mode(self, posix):
        fd = posix.open("log.txt", O_WRONLY | O_CREAT | O_APPEND)
        posix.write(fd, b"line1\n")
        posix.lseek(fd, 0)
        posix.write(fd, b"line2\n")  # append seeks to end regardless
        assert posix.stat("log.txt").size == 12

    def test_lseek_modes(self, posix):
        fd = posix.open("s.txt", O_RDWR | O_CREAT)
        posix.write(fd, b"0123456789")
        assert posix.lseek(fd, 2, SEEK_SET) == 2
        assert posix.lseek(fd, 3, SEEK_CUR) == 5
        assert posix.lseek(fd, -1, SEEK_END) == 9
        assert posix.read(fd, 1) == b"9"

    def test_negative_seek_rejected(self, posix):
        fd = posix.open("s.txt", O_RDWR | O_CREAT)
        with pytest.raises(UnixError):
            posix.lseek(fd, -1, SEEK_SET)

    def test_out_of_range_from_a_layer_is_einval(self, posix):
        """The facade refuses a negative argument itself; the same
        refusal from a layer below (a Spring client can reach one
        directly) is the same errno."""
        with pytest.raises(UnixError) as err, posix._client("f"):
            raise OutOfRangeError("truncate to negative length -1")
        assert err.value.code == "EINVAL"

    def test_ftruncate(self, posix):
        fd = posix.open("t.txt", O_RDWR | O_CREAT)
        posix.write(fd, b"0123456789")
        posix.ftruncate(fd, 4)
        assert posix.fstat(fd).size == 4

    def test_fsync(self, posix, sfs):
        fd = posix.open("d.txt", O_RDWR | O_CREAT)
        posix.write(fd, b"synced")
        posix.fsync(fd)
        volume = sfs.disk_layer.volume
        ino = volume.lookup(volume.sb.root_ino, "d.txt")
        assert volume.read_data(ino, 0, 6) == b"synced"


class TestDirectories:
    def test_mkdir_and_nested_paths(self, posix):
        posix.mkdir("projects")
        fd = posix.open("projects/readme.md", O_RDWR | O_CREAT)
        posix.write(fd, b"# hi")
        assert posix.stat("projects/readme.md").size == 4
        assert posix.listdir("projects") == ["readme.md"]

    def test_listdir_root(self, posix):
        posix.open("a", O_CREAT | O_RDWR)
        posix.open("b", O_CREAT | O_RDWR)
        assert posix.listdir() == ["a", "b"]

    def test_unlink(self, posix):
        posix.open("gone", O_CREAT | O_RDWR)
        posix.unlink("gone")
        assert posix.listdir() == []
        with pytest.raises(UnixError):
            posix.unlink("gone")

    def test_rename(self, posix):
        fd = posix.open("old", O_CREAT | O_RDWR)
        posix.write(fd, b"data")
        posix.rename("old", "new")
        assert posix.stat("new").size == 4
        with pytest.raises(UnixError):
            posix.stat("old")

    def test_stat_directory_is_eisdir(self, posix):
        posix.mkdir("d")
        with pytest.raises(UnixError) as err:
            posix.stat("d")
        assert err.value.code == "EISDIR"


class TestOverStacks:
    def test_posix_over_compfs(self, world, node, device, user):
        """The facade works over ANY stack — that's the architecture's
        'clients view the new layer as a file system' claim."""
        from repro.fs.compfs import CompFs
        from repro.fs.sfs import create_sfs
        from repro.ipc.domain import Credentials

        sfs = create_sfs(node, device)
        compfs = CompFs(node.create_domain("cz", Credentials("c", True)))
        compfs.stack_on(sfs.top)
        posix = Posix(compfs, user)
        fd = posix.open("doc.txt", O_RDWR | O_CREAT)
        posix.write(fd, b"compressed transparently " * 40)
        posix.fsync(fd)
        posix.lseek(fd, 0)
        assert posix.read(fd, 10) == b"compressed"
        with user.activate():
            report = compfs.space_report(compfs.resolve("doc.txt"))
        assert report["stored_bytes"] < 1000
