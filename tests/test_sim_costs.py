"""Unit tests for the cost model and charger calibration anchors."""

import dataclasses

import pytest

from repro.sim.clock import SimClock
from repro.sim.costs import Charger, CostModel
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

    def test_network_payload_cheaper_than_round_trip(self, charger):
        charger.network_payload(1024)
        payload_cost = charger.clock.now_us
        charger.network(1024)
        round_trip = charger.clock.now_us - payload_cost
        assert round_trip > payload_cost
