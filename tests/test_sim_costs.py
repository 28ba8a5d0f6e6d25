"""Unit tests for the cost model and charger calibration anchors."""

import dataclasses

import pytest

from repro.sim.clock import SimClock
from repro.sim.costs import FIXED_CHARGES, Charger, CostModel
from repro.types import PAGE_SIZE


@pytest.fixture
def charger():
    return Charger(SimClock(), CostModel())


class TestCostModel:
    def test_disk_io_matches_paper_anchor(self):
        """Uncached 4KB write is 13.7 ms in Table 2; the disk transfer
        must land in that regime."""
        model = CostModel()
        assert 13_000 <= model.disk_io_us(PAGE_SIZE) <= 14_500

    def test_disk_io_scales_with_size(self):
        model = CostModel()
        assert model.disk_io_us(2 * PAGE_SIZE) > model.disk_io_us(PAGE_SIZE)

    def test_network_transfer_includes_rtt(self):
        model = CostModel()
        assert model.network_transfer_us(0) == model.network_rtt_us

    def test_network_payload_charged_per_kb(self):
        model = CostModel()
        delta = model.network_transfer_us(2048) - model.network_transfer_us(1024)
        assert delta == pytest.approx(model.network_per_kb_us)

    def test_cross_domain_much_cheaper_than_disk(self):
        """The basis of Table 2's uncached rows."""
        model = CostModel()
        assert model.disk_io_us(PAGE_SIZE) > 50 * model.cross_domain_call_us

    def test_model_is_plain_data(self):
        fast = CostModel(disk_seek_us=0.0, disk_rotation_us=0.0)
        assert fast.disk_io_us(1024) == fast.disk_xfer_per_kb_us

    def test_model_is_frozen(self):
        # A Charger binds the fixed costs once: an edit would not be seen.
        model = CostModel()
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.fs_resolve_us = 1.0
        charger = Charger(SimClock(), CostModel(fs_resolve_us=7.0))
        charger.fs_resolve()
        assert charger.clock.categories() == {"cpu": 7.0}


class TestCharger:
    def test_categories_routed(self, charger):
        charger.cross_domain_call()
        charger.disk_io(PAGE_SIZE)
        charger.network(1024)
        charger.local_call()
        clock = charger.clock
        assert clock.charged("cross_domain") == charger.model.cross_domain_call_us
        assert clock.charged("disk") > 0
        assert clock.charged("network") > 0
        assert clock.charged("local_call") == charger.model.local_call_us

    def test_memcpy_proportional(self, charger):
        charger.memcpy(PAGE_SIZE)
        first = charger.clock.now_us
        charger.memcpy(2 * PAGE_SIZE)
        assert charger.clock.now_us - first == pytest.approx(2 * first)

    def test_named_fs_charges_advance_clock(self, charger):
        for op in (
            charger.fs_resolve,
            charger.fs_open_state,
            charger.fs_attr_copy,
            charger.fs_access_check,
            charger.fs_read_cpu,
            charger.fs_write_cpu,
            charger.vm_fault,
            charger.bind,
            charger.name_cache_hit,
        ):
            before = charger.clock.now_us
            op()
            assert charger.clock.now_us > before

    def test_transform_charges_scale(self, charger):
        before = charger.clock.now_us
        charger.compress(1024)
        one_kb = charger.clock.now_us - before
        charger.compress(4096)
        assert charger.clock.now_us - before == pytest.approx(5 * one_kb)

    @pytest.mark.parametrize(
        "charge", ["network", "network_payload", "disk_io", "memcpy"]
    )
    def test_a_negative_or_nan_size_charge_is_refused(self, charge):
        # A size-dependent charge goes straight to its bound account, so
        # its cost is checked in the Charger: a bad one leaves the clock
        # exactly as it was.
        model = CostModel(network_rtt_us=0.0, disk_seek_us=0.0,
                          disk_rotation_us=0.0)
        charger = Charger(SimClock(), model)
        for nbytes in (-1, float("nan")):
            with pytest.raises(ValueError, match="must be >= 0"):
                getattr(charger, charge)(nbytes)
        assert charger.clock.now_us == 0.0
        assert charger.clock.charge_counts() == {}

    def test_network_payload_cheaper_than_round_trip(self, charger):
        charger.network_payload(1024)
        payload_cost = charger.clock.now_us
        charger.network(1024)
        round_trip = charger.clock.now_us - payload_cost
        assert round_trip > payload_cost


def exact(value):
    """``value`` down to its type and bits: -0.0 and 0.0 differ, 5 and
    5.0 differ."""
    return type(value), repr(value)


def clock_state(clock):
    """Listed by category: a clock lists its categories in the order
    their accounts were opened, and a ``Charger`` opens its own first."""
    return (
        exact(clock.now_us),
        sorted((key, exact(total)) for key, total in clock.categories().items()),
        sorted(clock.charge_counts().items()),
    )


class TestFixedCharges:
    """A fixed charge is ``SimClock.charge`` over a cost checked when it
    was bound; it must leave the clock exactly as ``advance`` of the same
    cost under the same category does."""

    #: Zero, int and float fixed costs.
    MODEL = CostModel(
        local_call_us=0, cross_domain_call_us=107, syscall_us=0.0,
        fs_resolve_us=150, fs_read_cpu_us=0.1, vm_fault_us=25.5,
    )
    SEQUENCE = [
        "syscall", "local_call", "fs_read_cpu", "cross_domain_call",
        "fs_resolve", "fs_read_cpu", "vm_fault", "local_call", "bind",
    ]

    def replay(self, clock, charge):
        """The sequence, with size-dependent charges between, and again
        inside a frame that starts behind the clock."""
        charge(self.SEQUENCE[:4])
        clock.advance(0.0, "disk")
        clock.advance(3, "network")
        charge(self.SEQUENCE[4:])
        clock.seek(1_000.5)
        clock.begin_frame(20)
        charge(self.SEQUENCE)
        clock.advance(7, "cpu")
        elapsed = clock.end_frame()
        return exact(elapsed), clock_state(clock)

    def test_partials_and_advance_leave_bit_identical_clocks(self):
        bound = Charger(SimClock(), self.MODEL)

        def through_partials(names):
            for name in names:
                getattr(bound, name)()

        plain = SimClock()

        def through_advance(names):
            for name in names:
                plain.advance(
                    getattr(self.MODEL, f"{name}_us"), FIXED_CHARGES[name]
                )

        via_partials = self.replay(bound.clock, through_partials)
        via_advance = self.replay(plain, through_advance)
        assert via_partials == via_advance
        # The int and zero costs kept their type.
        categories = dict(via_partials[1][1])
        assert categories["local_call"] == (int, "0")
        assert categories["syscall"] == (float, "0.0")
        assert categories["disk"] == (float, "0.0")

    def test_a_bound_charge_lists_nothing_until_it_is_charged(self):
        charger = Charger(SimClock(), CostModel())
        assert charger.clock.categories() == {}
        assert charger.clock.charge_counts() == {}
        assert charger.clock.charged("cpu") == 0.0
        assert charger.clock.charge_count("cpu") == 0
        charger.syscall()
        assert charger.clock.categories() == {"syscall": 25.0}
        assert charger.clock.charge_counts() == {"syscall": 1}

    @pytest.mark.parametrize("cost", [-1.0, float("nan")])
    @pytest.mark.parametrize("name", ["local_call", "fs_resolve"])
    def test_a_negative_or_nan_fixed_cost_is_refused(self, name, cost):
        model = dataclasses.replace(CostModel(), **{f"{name}_us": cost})
        with pytest.raises(ValueError, match=f"{name}_us"):
            Charger(SimClock(), model)
