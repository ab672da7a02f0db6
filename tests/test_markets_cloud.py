"""Unit tests for the transient cloud provider model."""

import pytest

from repro.markets import TransientCloud, VMState, default_catalog
from repro.markets.catalog import PurchaseOption


@pytest.fixture
def cloud():
    return TransientCloud(warning_seconds=120.0, startup_seconds=60.0)


@pytest.fixture
def market(catalog):
    return catalog.market("m5.xlarge")


class TestLeases:
    def test_request_creates_starting_vms(self, cloud, market):
        vms = cloud.request(market, 3, now=0.0)
        assert len(vms) == 3
        assert all(vm.state is VMState.STARTING for vm in vms)
        assert all(vm.ready_time == 60.0 for vm in vms)

    def test_vms_serve_after_startup(self, cloud, market):
        cloud.request(market, 2, now=0.0)
        assert cloud.serving_capacity(30.0) == 0.0
        cloud.advance(61.0)
        assert cloud.serving_capacity(61.0) == 2 * market.capacity_rps

    def test_custom_startup(self, cloud, market):
        (vm,) = cloud.request(market, 1, now=0.0, startup_seconds=5.0)
        assert vm.ready_time == 5.0

    def test_negative_count_rejected(self, cloud, market):
        with pytest.raises(ValueError):
            cloud.request(market, -1, now=0.0)

    def test_user_termination_bills_and_stops(self, cloud, market):
        (vm,) = cloud.request(market, 1, now=0.0)
        cloud.advance(100.0)
        cloud.terminate(vm, 3600.0)
        assert vm.state is VMState.TERMINATED
        assert vm.accrued_cost == pytest.approx(market.instance.ondemand_price)
        # Idempotent.
        cloud.terminate(vm, 7200.0)
        assert vm.accrued_cost == pytest.approx(market.instance.ondemand_price)


class TestRevocations:
    def test_warning_then_termination(self, cloud, market):
        vms = cloud.request(market, 2, now=0.0)
        cloud.advance(100.0)
        warned = []
        cloud.on_warning(lambda vm, t: warned.append((vm.vm_id, t)))
        cloud.revoke_market(market, 200.0)
        assert len(warned) == 2
        assert all(t == 200.0 for _, t in warned)
        assert all(vm.state is VMState.WARNED for vm in vms)
        # Warned VMs still serve until the deadline.
        assert cloud.serving_capacity(250.0) == 2 * market.capacity_rps
        dead = cloud.advance(320.0)
        assert len(dead) == 2
        assert cloud.serving_capacity(321.0) == 0.0

    def test_revoking_ondemand_rejected(self, cloud, catalog):
        od = catalog.market("m5.xlarge", PurchaseOption.ON_DEMAND)
        with pytest.raises(ValueError):
            cloud.revoke_market(od, 0.0)
        cloud2 = TransientCloud()
        (vm,) = cloud2.request(od, 1, now=0.0)
        with pytest.raises(ValueError):
            cloud2.revoke_vm(vm, 10.0)

    def test_termination_callback(self, cloud, market):
        (vm,) = cloud.request(market, 1, now=0.0)
        cloud.advance(100.0)
        deaths = []
        cloud.on_termination(lambda v, t: deaths.append((v.vm_id, t)))
        cloud.revoke_vm(vm, 200.0)
        cloud.advance(400.0)
        assert deaths == [(vm.vm_id, 320.0)]

    def test_billing_stops_at_warning_deadline(self, cloud, market):
        (vm,) = cloud.request(market, 1, now=0.0)
        cloud.revoke_market(market, 0.0)
        cloud.advance(7200.0)
        # Billed only for the 120 s warning window.
        expected = market.instance.ondemand_price * (120.0 / 3600.0)
        assert vm.accrued_cost == pytest.approx(expected)

    def test_vm_leased_by_a_warning_callback_is_not_revoked(self, cloud, market):
        """A warning callback may lease a replacement mid-revocation."""
        vms = cloud.request(market, 2, now=0.0)
        replacements = []

        def replace_once(_vm, t):
            if not replacements:
                replacements.extend(cloud.request(market, 1, now=t))

        cloud.on_warning(replace_once)
        assert cloud.revoke_market(market, 10.0) == vms
        assert all(vm.state is VMState.WARNED for vm in vms)
        assert [vm.state for vm in replacements] == [VMState.STARTING]

    def test_warning_during_boot(self, cloud, market):
        """A VM warned while still booting dies without ever serving."""
        (vm,) = cloud.request(market, 1, now=0.0)
        cloud.revoke_market(market, 10.0)
        cloud.advance(200.0)
        assert vm.state is VMState.TERMINATED


class TestBilling:
    def test_spot_price_function_used(self, catalog):
        market = catalog.market("m5.xlarge")
        cloud = TransientCloud(price_fn=lambda m, t: 0.05)
        (vm,) = cloud.request(market, 1, now=0.0)
        cloud.accrue(7200.0)
        assert vm.accrued_cost == pytest.approx(0.10)
        assert cloud.total_cost() == pytest.approx(0.10)

    def test_live_vm_lookup(self, cloud, market, catalog):
        other = catalog.market("c5.large")
        cloud.request(market, 2, now=0.0)
        cloud.request(other, 1, now=0.0)
        assert len(cloud.live_vms()) == 3
        assert len(cloud.live_vms(market)) == 2
