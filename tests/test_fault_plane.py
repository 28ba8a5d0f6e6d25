"""The fault plane: scheduled crashes/partitions/link faults, the
invocation retry policy, idempotence-aware compound retry, and the
reference fault schedule's availability bars."""

from __future__ import annotations

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    MessageDroppedError,
    NodeCrashedError,
    TransientNetworkError,
)
from repro.fs.dfs import export_dfs, mount_remote
from repro.fs.sfs import create_sfs
from repro.ipc.compound import CompoundInvocation, CompoundSubOpError
from repro.ipc.network import NetworkPartitionError
from repro.ipc.retry import RetryPolicy
from repro.sim.faults import FaultEvent, FaultPlan
from repro.storage.block_device import BlockDevice
from repro.types import PAGE_SIZE
from repro.world import World

BENCH = pathlib.Path(__file__).parent.parent / "benchmarks"


@pytest.fixture
def pair(world):
    a = world.create_node("a")
    b = world.create_node("b")
    return a, b


class TestFaultPlanSchedule:
    def test_sorted_events_by_time_then_insertion(self):
        plan = FaultPlan()
        plan.crash("n", at_us=500)
        plan.partition("a", "b", at_us=100)
        plan.heal("a", "b", at_us=100)  # same time: insertion order wins
        kinds = [(e.time_us, e.kind) for e in plan.sorted_events()]
        assert kinds == [(100, "partition"), (100, "heal"), (500, "crash")]

    @pytest.mark.parametrize("probability", [-0.1, 1.5, float("nan")])
    def test_drop_probability_out_of_range_is_refused(self, probability):
        plan = FaultPlan()
        with pytest.raises(ValueError, match="probability out of range"):
            plan.drop_probability("a", "b", probability)
        assert plan.events == []

    def test_an_unknown_kind_is_refused_when_applied(self, world, pair):
        # The plan's constructors name only known kinds; an event built
        # by hand is refused when the plane reaches it.
        plan = FaultPlan()
        plan.events.append(FaultEvent(0.0, "meteor", "a"))
        plane = world.install_fault_plan(plan)
        with pytest.raises(ValueError, match="unknown fault kind 'meteor'"):
            plane.poll()

    def test_plan_is_inert_until_installed(self, world, pair):
        a, b = pair
        plan = FaultPlan().crash("a", at_us=0)
        world.clock.advance(10)
        assert not a.crashed  # schedule not installed, nothing applied
        plane = world.install_fault_plan(plan)
        assert not a.crashed  # installed but not yet polled
        plane.poll()
        assert a.crashed


class TestScheduledEvents:
    def test_crash_applies_when_clock_arrives(self, world, pair):
        a, b = pair
        world.install_fault_plan(FaultPlan().crash("a", at_us=100))
        world.network.transfer(a, b, 0)  # t=0: before the event
        world.clock.advance(100)
        with pytest.raises(NodeCrashedError):
            world.network.transfer(a, b, 0)
        assert a.crashed
        assert world.counters.get("faults.crashes") == 1

    def test_recover_bumps_epoch_and_heals(self, world, pair):
        a, b = pair
        world.install_fault_plan(
            FaultPlan().crash("a", at_us=100, recover_at_us=200)
        )
        world.clock.advance(100)
        with pytest.raises(NodeCrashedError):
            world.network.transfer(a, b, 0)
        world.clock.advance(100)  # past the recover event
        world.network.transfer(a, b, 0)  # poll applies recover, send works
        assert not a.crashed
        assert a.epoch == 1
        assert world.counters.get("faults.recoveries") == 1

    def test_crash_and_recover_are_idempotent(self, pair):
        # Overlapping schedules may crash a node that is down, or recover
        # one that is up: the second call changes nothing.
        a, _ = pair
        fired = []
        a.add_crash_listener(lambda: fired.append(a.epoch))
        a.crash()
        a.crash()
        assert a.crashed and fired == [0]
        a.recover()
        a.recover()
        assert not a.crashed and a.epoch == 1

    def test_partition_and_heal(self, world, pair):
        a, b = pair
        world.install_fault_plan(
            FaultPlan().partition("a", "b", at_us=50, heal_at_us=150)
        )
        world.clock.advance(50)
        with pytest.raises(NetworkPartitionError):
            world.network.transfer(a, b, 0)
        world.clock.advance(100)
        world.network.transfer(a, b, 0)
        assert world.counters.get("faults.partitions") == 1
        assert world.counters.get("faults.heals") == 1

    def test_applied_log_records_order(self, world, pair):
        a, b = pair
        plane = world.install_fault_plan(
            FaultPlan()
            .partition("a", "b", at_us=10, heal_at_us=20)
            .crash("a", at_us=30)
        )
        world.clock.advance(100)
        plane.poll()
        assert [entry[0] for entry in plane.applied] == [
            "partition",
            "heal",
            "crash",
        ]


class TestLinkEffects:
    def test_drop_raises_and_counts(self, world, pair):
        a, b = pair
        world.install_fault_plan(FaultPlan().drop("a", "b", at_us=0, count=2))
        plane = world.network.fault_plane
        plane.poll()
        for _ in range(2):
            with pytest.raises(MessageDroppedError):
                world.network.transfer(a, b, 64)
        world.network.transfer(a, b, 64)  # budget spent, flows again
        assert world.counters.get("faults.dropped") == 2

    def test_drop_is_directional(self, world, pair):
        a, b = pair
        world.install_fault_plan(FaultPlan().drop("a", "b", at_us=0))
        world.network.transfer(b, a, 0)  # reverse direction unaffected
        with pytest.raises(MessageDroppedError):
            world.network.transfer(a, b, 0)

    def test_delay_advances_clock(self, world, pair):
        a, b = pair
        world.install_fault_plan(
            FaultPlan().delay("a", "b", at_us=0, delay_us=250.0)
        )
        before = world.clock.now_us
        world.network.transfer(a, b, 0)
        assert world.clock.charged("network_fault_delay") == 250.0
        assert world.clock.now_us > before + 249
        assert world.counters.get("faults.delayed") == 1

    def test_a_delay_of_count_n_delays_n_messages(self, world, pair):
        a, b = pair
        world.install_fault_plan(
            FaultPlan().delay("a", "b", at_us=0, delay_us=250.0, count=3)
        )
        for _ in range(4):
            world.network.transfer(a, b, 0)
        assert world.clock.charged("network_fault_delay") == 750.0
        assert world.clock.charge_count("network_fault_delay") == 3
        assert world.counters.get("faults.delayed") == 3

    def test_duplicate_charges_second_send(self, world, pair):
        a, b = pair
        world.install_fault_plan(FaultPlan().duplicate("a", "b", at_us=0))
        world.network.transfer(a, b, 100)
        assert world.network.messages == 2  # original + duplicate
        assert world.network.bytes_count(a, b) == 200
        assert world.counters.get("faults.duplicated") == 1

    def test_probabilistic_drops_are_seed_deterministic(self):
        def outcomes(seed: int):
            world = World()
            a = world.create_node("a")
            b = world.create_node("b")
            world.install_fault_plan(
                FaultPlan(seed=seed).drop_probability("a", "b", 0.5)
            )
            result = []
            for _ in range(20):
                try:
                    world.network.transfer(a, b, 0)
                    result.append(True)
                except MessageDroppedError:
                    result.append(False)
            return result

        assert outcomes(3) == outcomes(3)  # same seed, same drops
        assert outcomes(3) != outcomes(4)  # different seed, different run
        assert not all(outcomes(3))

    def test_probability_window_expires(self, world, pair):
        a, b = pair
        world.install_fault_plan(
            FaultPlan().drop_probability("a", "b", 1.0, at_us=0, until_us=100)
        )
        with pytest.raises(MessageDroppedError):
            world.network.transfer(a, b, 0)
        world.clock.advance(100)
        world.network.transfer(a, b, 0)  # window over


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_backoff_us=100, backoff_factor=2.0, max_backoff_us=350
        )
        assert [policy.backoff_us(n) for n in range(4)] == [100, 200, 350, 350]

    def test_only_transient_errors_retry(self):
        policy = RetryPolicy()
        assert policy.should_retry(0, 0.0, NodeCrashedError("x"))
        assert not policy.should_retry(0, 0.0, ValueError("x"))

    def test_max_attempts_bounds_retries(self):
        policy = RetryPolicy(max_attempts=3)
        exc = NodeCrashedError("x")
        assert policy.should_retry(0, 0.0, exc)
        assert policy.should_retry(1, 0.0, exc)
        assert not policy.should_retry(2, 0.0, exc)

    def test_timeout_bounds_total_backoff(self):
        policy = RetryPolicy(
            base_backoff_us=100,
            backoff_factor=1.0,
            max_backoff_us=100,
            timeout_us=250,
        )
        exc = NodeCrashedError("x")
        assert policy.should_retry(0, 0.0, exc)  # will have waited 100
        assert policy.should_retry(1, 100.0, exc)  # 200 total
        assert not policy.should_retry(2, 200.0, exc)  # 300 > 250


@pytest.fixture
def dist(world):
    server = world.create_node("server")
    client = world.create_node("client")
    device = BlockDevice(server.nucleus, "sd0", 8192)
    sfs = create_sfs(server, device)
    dfs = export_dfs(server, sfs.top)
    mount_remote(client, server, "dfs")
    su = world.create_user_domain(server, "su")
    cu = world.create_user_domain(client, "cu")
    with su.activate():
        dfs.create_file("shared.dat").write(0, b"S" * PAGE_SIZE)
    return world, server, client, dfs, su, cu


class TestInvocationRetry:
    def test_retry_carries_caller_across_crash_window(self, dist):
        world, server, client, dfs, su, cu = dist
        base = world.clock.now_us
        world.install_fault_plan(
            FaultPlan().crash("server", base + 10, recover_at_us=base + 500)
        )
        world.enable_retries(RetryPolicy(base_backoff_us=100))
        world.clock.advance(10)
        with cu.activate():
            rf = client.fs_context.resolve("dfs@server/shared.dat")
            assert rf.read(0, 4) == b"SSSS"
        assert world.counters.get("invoke.retries") >= 1
        assert world.clock.charged("retry_backoff") > 0

    def test_per_layer_retry_counter(self, dist):
        world, server, client, dfs, su, cu = dist
        with cu.activate():
            rf = client.fs_context.resolve("dfs@server/shared.dat")
        base = world.clock.now_us
        world.install_fault_plan(
            FaultPlan().partition("server", "client", base, heal_at_us=base + 300)
        )
        world.enable_retries(RetryPolicy(base_backoff_us=200))
        with cu.activate():
            rf.read(0, 4)
        assert world.counters.get("dfs.retries") >= 1

    def test_a_dropped_write_is_resent_and_applied_once(self, dist, monkeypatch):
        world, server, client, dfs, su, cu = dist
        with cu.activate():
            rf = client.fs_context.resolve("dfs@server/shared.dat")
        applied = []
        file_write = type(dfs).file_write

        def counted(layer, state, offset, data):
            applied.append(bytes(data))
            return file_write(layer, state, offset, data)

        monkeypatch.setattr(type(dfs), "file_write", counted)
        world.install_fault_plan(
            FaultPlan().drop("client", "server", world.clock.now_us)
        )
        world.enable_retries(RetryPolicy(base_backoff_us=100))
        with cu.activate():
            assert rf.write(0, b"WW") == 2
        assert world.counters.get("faults.dropped") == 1
        assert world.counters.get("invoke.retries") == 1
        # The dropped send never reached the server, so the body ran
        # zero times before the resend and once after it.
        assert applied == [b"WW"]
        with su.activate():
            assert dfs.resolve("shared.dat").read(0, 4) == b"WWSS"

    def test_retries_exhausted_surfaces_error(self, dist):
        world, server, client, dfs, su, cu = dist
        world.install_fault_plan(
            FaultPlan().partition("server", "client", world.clock.now_us)
        )  # never heals
        world.enable_retries(
            RetryPolicy(max_attempts=3, base_backoff_us=10, timeout_us=100)
        )
        with cu.activate():
            with pytest.raises(NetworkPartitionError):
                client.fs_context.resolve("dfs@server/shared.dat")

    def test_no_policy_means_no_retries(self, dist):
        world, server, client, dfs, su, cu = dist
        world.install_fault_plan(
            FaultPlan().crash("server", world.clock.now_us)
        )
        with cu.activate():
            with pytest.raises(NodeCrashedError):
                client.fs_context.resolve("dfs@server/shared.dat")
        assert world.counters.get("invoke.retries") == 0


class TestCompoundCommitRevalidation:
    """Regression for the compound/fault-plane race: a partition event
    landing between a sub-op's absorption and the region flush must not
    raise out of the flush — reachability is authoritative at commit
    time, right before each body runs."""

    @pytest.fixture
    def intent_setup(self, dist):
        world, server, client, dfs, su, cu = dist
        with su.activate():
            for i in range(4):
                dfs.create_file(f"f{i}.dat").write(0, b"x" * (i + 1))
        with cu.activate():
            directory = client.fs_context.resolve("dfs@server")
        return world, server, client, directory, cu

    def test_partition_mid_batch_fails_sub_op_not_flush(self, intent_setup):
        world, server, client, directory, cu = intent_setup
        with cu.activate():
            batch = CompoundInvocation(world, fail_fast=False)
            for i in range(4):
                batch.add(directory.open_intent, f"f{i}.dat")
            # The partition lands mid-batch: earlier sub-ops advance the
            # clock past it, so later sub-ops must fail their commit-time
            # reachability check instead of blowing up the region flush.
            world.install_fault_plan(
                FaultPlan().partition(
                    "server", "client", world.clock.now_us + 1
                )
            )
            result = batch.commit()  # must not raise
        outcomes = [result.outcomes[i] for i in range(4)]
        assert not isinstance(outcomes[0], CompoundSubOpError)
        failed = [o for o in outcomes if isinstance(o, CompoundSubOpError)]
        assert failed, "partition never failed a sub-op"
        assert all(
            isinstance(o.cause, NetworkPartitionError) for o in failed
        )

    def test_compound_retry_reruns_only_unexecuted(self, intent_setup):
        world, server, client, directory, cu = intent_setup
        base = world.clock.now_us
        # One intent body burns ~2ms of virtual time, so the partition
        # lands after sub-op 0 and the heal sits a few backoffs away.
        world.install_fault_plan(
            FaultPlan().partition(
                "server", "client", base + 1, heal_at_us=base + 10_000
            )
        )
        world.enable_retries(RetryPolicy(base_backoff_us=2_000.0))
        with cu.activate():
            batch = CompoundInvocation(world)
            for i in range(4):
                batch.add(directory.open_intent, f"f{i}.dat")
            result = batch.commit()
        assert result.ok  # retry pass completed the tail after the heal
        sizes = [r.attributes.size for r in result.values()]
        assert sizes == [1, 2, 3, 4]
        assert world.counters.get("compound.retries") >= 1

    def test_compound_retry_gives_up_after_max_attempts(self, intent_setup):
        world, server, client, directory, cu = intent_setup
        world.install_fault_plan(
            FaultPlan().partition("server", "client", world.clock.now_us)
        )
        world.enable_retries(RetryPolicy(max_attempts=2, base_backoff_us=10))
        with cu.activate():
            batch = CompoundInvocation(world)
            batch.add(directory.open_intent, "f0.dat")
            result = batch.commit()
        # One retry pass, then the policy's last attempt is spent.
        assert world.counters.get("compound.retries") == 1
        assert isinstance(result.error.cause, NetworkPartitionError)

    def test_executed_sub_ops_never_rerun(self, dist):
        world, server, client, dfs, su, cu = dist
        calls = []

        class Probe:
            domain = None  # local op: no destination prevalidation

            def op(self):
                calls.append(1)
                raise NodeCrashedError("transient-looking body failure")

        world.enable_retries(RetryPolicy(base_backoff_us=10))
        with cu.activate():
            batch = CompoundInvocation(world)
            batch.add(Probe().op)
            result = batch.commit()
        # The body ran once and raised something retry-eligible — but a
        # body failure may have left server-side state, so no rerun.
        assert len(calls) == 1
        assert isinstance(result.outcomes[0], CompoundSubOpError)


class TestReferenceSchedule:
    """The ISSUE's acceptance bars for the reference fault schedule
    (two server crashes + one 1.5ms partition over a 100-op workload),
    asserted against the committed BENCH_faults.json."""

    @pytest.fixture(scope="class")
    def record(self):
        from benchmarks.bench_fault_recovery import build_record

        return build_record()

    def test_knobs_on_completes_everything(self, record):
        on = record["cells"]["knobs_on"]
        assert on["availability_pct"] == 100.0
        assert on["failed"] == 0

    def test_knobs_off_fails_at_least_20pct(self, record):
        off = record["cells"]["knobs_off"]
        assert off["failed"] >= 20

    def test_both_cells_saw_the_whole_schedule(self, record):
        for cell in record["cells"].values():
            assert cell["faults_applied"]["crashes"] == 2
            assert cell["faults_applied"]["partitions"] == 1

    def test_recovery_machinery_engaged(self, record):
        on = record["cells"]["knobs_on"]
        assert on["retries"] > 0
        assert on["dfs_recoveries"] > 0
        assert on["recovery_backoff_ms"] > 0

    def test_record_matches_committed_bytes(self, record):
        from benchmarks.emit_common import dump_record

        assert dump_record(record) == (BENCH / "BENCH_faults.json").read_text()


# ---------------------------------------------------------------------------
# Convergence: any eventually-healed schedule + retries ends in the same
# file state as a fault-free run.
# ---------------------------------------------------------------------------
def _run_workload(schedule_spec):
    """A fixed remote workload under ``schedule_spec`` (a list of
    (kind, offset_us, outage_us) tuples); returns the files' final
    contents read server-side after the dust settles."""
    world = World()
    server = world.create_node("server")
    client = world.create_node("client")
    device = BlockDevice(server.nucleus, "sd0", 8192)
    sfs = create_sfs(server, device)
    dfs = export_dfs(server, sfs.top)
    mount_remote(client, server, "dfs")
    su = world.create_user_domain(server, "su")
    cu = world.create_user_domain(client, "cu")
    with su.activate():
        for name in ("x.dat", "y.dat"):
            dfs.create_file(name).write(0, b"0" * PAGE_SIZE)
    if schedule_spec:
        base = world.clock.now_us
        plan = FaultPlan()
        for kind, offset_us, outage_us in schedule_spec:
            if kind == "crash":
                plan.crash(
                    "server",
                    base + offset_us,
                    recover_at_us=base + offset_us + outage_us,
                )
            else:
                plan.partition(
                    "server",
                    "client",
                    base + offset_us,
                    heal_at_us=base + offset_us + outage_us,
                )
        world.install_fault_plan(plan)
    # Generous budget: worst-case backoff far exceeds the longest
    # schedulable outage, so every op rides out its fault window.
    world.enable_retries(
        RetryPolicy(
            max_attempts=20,
            base_backoff_us=200.0,
            max_backoff_us=2_000.0,
            timeout_us=200_000.0,
        )
    )
    with cu.activate():
        for i in range(12):
            world.clock.advance(40.0, "client_think")
            name = ("x.dat", "y.dat")[i % 2]
            handle = client.fs_context.resolve(f"dfs@server/{name}")
            if i % 3 == 2:
                handle.set_length((i + 1) * 100)
            else:
                handle.write(i * 64, bytes([65 + i]) * 64)
    world.network.heal_all()
    for node in world.nodes.values():
        node.recover()
    with su.activate():
        return {
            name: (
                dfs.resolve(name).get_attributes().size,
                dfs.resolve(name).read(0, PAGE_SIZE),
            )
            for name in ("x.dat", "y.dat")
        }


FAULT_EVENT = st.tuples(
    st.sampled_from(["crash", "partition"]),
    st.floats(min_value=0.0, max_value=60_000.0),  # offset into workload
    st.floats(min_value=50.0, max_value=4_000.0),  # outage, always heals
)


class TestConvergence:
    baseline = None

    @settings(max_examples=20, deadline=None)
    @given(st.lists(FAULT_EVENT, min_size=0, max_size=3))
    def test_faulted_run_converges_to_fault_free_state(self, schedule):
        if TestConvergence.baseline is None:
            TestConvergence.baseline = _run_workload([])
        assert _run_workload(schedule) == TestConvergence.baseline
