"""Unit tests for MIRRORFS (replication over two stacks) and the
per-file / name-space interposition machinery of paper sec. 5."""

import codecs

import pytest

from repro.errors import FsError, PermissionDeniedError, ReadOnlyError, StackingError
from repro.fs.interposer import (
    AuditFile,
    InterposedFile,
    ReadOnlyFile,
    TransformFile,
    WatchdogContext,
    interpose_on_name,
)
from repro.fs.mirrorfs import MirrorFs
from repro.fs.sfs import create_sfs
from repro.ipc.domain import Credentials
from repro.storage.block_device import BlockDevice
from repro.types import AccessRights


@pytest.fixture
def mirror_env(world, node):
    dev_a = BlockDevice(node.nucleus, "sda", 4096)
    dev_b = BlockDevice(node.nucleus, "sdb", 4096)
    sfs_a = create_sfs(node, dev_a, name="sfs-a")
    sfs_b = create_sfs(node, dev_b, name="sfs-b")
    mirror = MirrorFs(node.create_domain("mirror", Credentials("m", True)))
    mirror.stack_on(sfs_a.top)
    mirror.stack_on(sfs_b.top)
    user = world.create_user_domain(node)
    return world, node, sfs_a, sfs_b, mirror, dev_a, dev_b, user


class TestMirrorFs:
    def test_requires_two_replicas(self, world, node):
        lonely = MirrorFs(node.create_domain("m1", Credentials("m", True)))
        with pytest.raises(FsError):
            lonely.create_file("x")

    def test_max_two_unders(self, mirror_env):
        _, node, sfs_a, *_ = mirror_env
        mirror = mirror_env[4]
        with pytest.raises(StackingError):
            mirror.stack_on(sfs_a.top)

    def test_write_reaches_both_replicas(self, mirror_env):
        world, node, sfs_a, sfs_b, mirror, _, _, user = mirror_env
        with user.activate():
            f = mirror.create_file("r.dat")
            f.write(0, b"replicated")
            assert sfs_a.top.resolve("r.dat").read(0, 10) == b"replicated"
            assert sfs_b.top.resolve("r.dat").read(0, 10) == b"replicated"

    def test_read_from_primary(self, mirror_env):
        world, node, sfs_a, sfs_b, mirror, _, _, user = mirror_env
        with user.activate():
            f = mirror.create_file("r.dat")
            f.write(0, b"data")
            assert f.read(0, 4) == b"data"
        assert world.counters.get("mirrorfs.failover") == 0

    def test_failover_on_primary_error(self, mirror_env):
        world, node, sfs_a, sfs_b, mirror, dev_a, _, user = mirror_env
        with user.activate():
            f = mirror.create_file("r.dat")
            f.write(0, b"survives")
            f.sync()
        # Break the primary device *and* bypass its cache by injecting
        # errors into the attr path too: easiest is to drop the cached
        # pages by using uncached replicas — instead, just corrupt the
        # device and truncate the coherency cache.
        state = next(iter(sfs_a.coherency_layer._states.values()))
        state.store.clear()
        for block in range(dev_a.num_blocks):
            dev_a.inject_bad_block(block)
        with user.activate():
            assert mirror.resolve("r.dat").read(0, 8) == b"survives"
        assert world.counters.get("mirrorfs.failover") >= 1

    def test_all_replicas_failed(self, mirror_env):
        world, node, sfs_a, sfs_b, mirror, dev_a, dev_b, user = mirror_env
        with user.activate():
            f = mirror.create_file("r.dat")
            f.write(0, b"x")
            f.sync()
        for stack in (sfs_a, sfs_b):
            state_map = stack.coherency_layer._states
            for state in state_map.values():
                state.store.clear()
        for dev in (dev_a, dev_b):
            for block in range(dev.num_blocks):
                dev.inject_bad_block(block)
        with user.activate():
            with pytest.raises(FsError, match="all replicas failed"):
                mirror.resolve("r.dat").read(0, 1)

    def test_scrub_clean(self, mirror_env):
        *_, mirror, _, _, user = mirror_env
        with user.activate():
            f = mirror.create_file("r.dat")
            f.write(0, b"same everywhere")
            assert mirror.scrub("r.dat") == []

    def test_scrub_detects_divergence(self, mirror_env):
        world, node, sfs_a, sfs_b, mirror, _, _, user = mirror_env
        with user.activate():
            f = mirror.create_file("r.dat")
            f.write(0, b"identical")
            # Divergence: write replica B directly, behind the mirror.
            sfs_b.top.resolve("r.dat").write(0, b"DIFFERENT")
            problems = mirror.scrub("r.dat")
        assert problems

    def test_repair_restores_agreement(self, mirror_env):
        world, node, sfs_a, sfs_b, mirror, _, _, user = mirror_env
        with user.activate():
            f = mirror.create_file("r.dat")
            f.write(0, b"identical")
            sfs_b.top.resolve("r.dat").write(0, b"DIVERGENT")
            mirror.repair("r.dat")
            assert mirror.scrub("r.dat") == []
            assert sfs_b.top.resolve("r.dat").read(0, 9) == b"identical"

    def test_unlink_removes_from_both(self, mirror_env):
        world, node, sfs_a, sfs_b, mirror, _, _, user = mirror_env
        with user.activate():
            mirror.create_file("gone.dat")
            mirror.unbind("gone.dat")
            assert "gone.dat" not in [n for n, _ in sfs_a.top.list_bindings()]
            assert "gone.dat" not in [n for n, _ in sfs_b.top.list_bindings()]

    def test_writable_mapping_rejected(self, mirror_env):
        *_, mirror, _, _, user = mirror_env
        node = mirror_env[1]
        with user.activate():
            f = mirror.create_file("m.dat")
            f.write(0, b"x" * 4096)
            with pytest.raises(FsError):
                node.vmm.create_address_space("t").map(
                    f, AccessRights.READ_WRITE
                )
            mapping = node.vmm.create_address_space("t2").map(
                f, AccessRights.READ_ONLY
            )
            assert mapping.read(0, 1) == b"x"


@pytest.fixture
def files(world, node, device, user):
    sfs = create_sfs(node, device)
    with user.activate():
        f = sfs.top.create_file("target.txt")
        f.write(0, b"original content")
    return world, node, sfs, user


class TestFileInterposers:
    def test_plain_forwarding(self, files):
        world, node, sfs, user = files
        with user.activate():
            wrapped = InterposedFile(node.nucleus, sfs.top.resolve("target.txt"))
            assert wrapped.read(0, 8) == b"original"
            wrapped.write(0, b"UPDATED!")
            assert sfs.top.resolve("target.txt").read(0, 8) == b"UPDATED!"
            assert wrapped.get_attributes().size == 16

    def test_audit_file_logs(self, files):
        world, node, sfs, user = files
        with user.activate():
            audit = AuditFile(node.nucleus, sfs.top.resolve("target.txt"))
            audit.read(0, 4)
            audit.write(4, b"zz")
            audit.read(2, 2)
        assert audit.audit_log == [
            ("read", 0, 4),
            ("write", 4, 2),
            ("read", 2, 2),
        ]

    def test_readonly_file_blocks_mutation(self, files):
        world, node, sfs, user = files
        with user.activate():
            guard = ReadOnlyFile(node.nucleus, sfs.top.resolve("target.txt"))
            assert guard.read(0, 8) == b"original"
            with pytest.raises(ReadOnlyError):
                guard.write(0, b"nope")
            with pytest.raises(ReadOnlyError):
                guard.set_length(0)
            with pytest.raises(ReadOnlyError):
                guard.check_access(AccessRights.READ_WRITE)
            # The original is untouched.
            assert sfs.top.resolve("target.txt").read(0, 8) == b"original"

    def test_readonly_denies_writable_mapping(self, files):
        world, node, sfs, user = files
        with user.activate():
            guard = ReadOnlyFile(node.nucleus, sfs.top.resolve("target.txt"))
            with pytest.raises(ReadOnlyError):
                node.vmm.create_address_space("t").map(
                    guard, AccessRights.READ_WRITE
                )
            ro = node.vmm.create_address_space("t2").map(
                guard, AccessRights.READ_ONLY
            )
            assert ro.read(0, 8) == b"original"

    def test_transform_file_roundtrip(self, files):
        world, node, sfs, user = files
        rot13 = lambda b: codecs.encode(b.decode("latin1"), "rot13").encode("latin1")
        with user.activate():
            tf = TransformFile(
                node.nucleus,
                sfs.top.resolve("target.txt"),
                encode=rot13,
                decode=rot13,
            )
            tf.write(0, b"hello")
            assert tf.read(0, 5) == b"hello"
            assert sfs.top.resolve("target.txt").read(0, 5) == b"uryyb"

    def test_transform_denies_mapping(self, files):
        world, node, sfs, user = files
        with user.activate():
            tf = TransformFile(
                node.nucleus,
                sfs.top.resolve("target.txt"),
                encode=lambda b: b,
                decode=lambda b: b,
            )
            with pytest.raises(PermissionDeniedError):
                node.vmm.create_address_space("t").map(
                    tf, AccessRights.READ_ONLY
                )


class TestWatchdogContext:
    def test_selective_interception(self, files):
        world, node, sfs, user = files
        watchdog = WatchdogContext(node.nucleus, sfs.top)
        watchdog.watch("target.txt", lambda f: ReadOnlyFile(node.nucleus, f))
        with user.activate():
            sfs.top.create_file("free.txt").write(0, b"untouched")
            guarded = watchdog.resolve("target.txt")
            with pytest.raises(ReadOnlyError):
                guarded.write(0, b"x")
            free = watchdog.resolve("free.txt")
            free.write(0, b"fine")  # not intercepted
        assert watchdog.intercepted == ["target.txt"]

    def test_interpose_on_name_splices(self, files):
        world, node, sfs, user = files
        node.fs_context.bind("guarded", sfs.top)
        watchdog = interpose_on_name(node.fs_context, "guarded", node.nucleus)
        watchdog.watch("target.txt", lambda f: AuditFile(node.nucleus, f))
        with user.activate():
            via_ns = node.fs_context.resolve("guarded")
            assert via_ns is watchdog  # the name space now serves the spy
            via_ns.resolve("target.txt").read(0, 4)
        assert world.counters.get("watchdog.intercepted") == 1

    def test_interpose_requires_bind_rights(self, files, world):
        from repro.naming.acl import system_acl
        from repro.naming.context import MemoryContext

        _, node, sfs, user = files
        protected = MemoryContext(node.nucleus, system_acl("nucleus"))
        protected._bindings["dir"] = sfs.top
        with user.activate():
            with pytest.raises(PermissionDeniedError):
                interpose_on_name(protected, "dir", user)

    def test_interpose_on_non_context_rejected(self, files):
        world, node, sfs, user = files
        node.fs_context.bind("just-a-value", 42)
        with pytest.raises(PermissionDeniedError):
            interpose_on_name(node.fs_context, "just-a-value", node.nucleus)
