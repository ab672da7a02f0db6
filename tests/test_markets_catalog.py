"""Unit tests for the instance catalog."""

import pytest

from repro.markets import Catalog, InstanceType, PurchaseOption
from repro.markets.catalog import REQUESTS_PER_VCPU


class TestInstanceType:
    def test_capacity_defaults_to_vcpu_rule(self):
        t = InstanceType("m5.xlarge", 4, 16.0, 0.192)
        assert t.capacity_rps == REQUESTS_PER_VCPU * 4

    def test_explicit_capacity_respected(self):
        t = InstanceType("custom.large", 2, 8.0, 0.1, capacity_rps=55.0)
        assert t.capacity_rps == 55.0

    def test_family(self):
        assert InstanceType("r5d.24xlarge", 96, 768.0, 6.912).family == "r5d"

    def test_per_request_cost(self):
        t = InstanceType("c5.xlarge", 4, 8.0, 0.17)
        assert t.per_request_cost(0.17) == pytest.approx(0.17 / 80.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            InstanceType("bad", 0, 1.0, 0.1)
        with pytest.raises(ValueError):
            InstanceType("bad", 2, 1.0, 0.0)


class TestPaperCalibration:
    """The three markets the paper names must match its stated capacities."""

    @pytest.mark.parametrize(
        "name,expected_rps",
        [("r5d.24xlarge", 1920.0), ("r5.4xlarge", 320.0), ("r4.4xlarge", 320.0)],
    )
    def test_capacities(self, catalog, name, expected_rps):
        assert catalog.type_named(name).capacity_rps == expected_rps


class TestMarket:
    def test_names_and_revocability(self, catalog):
        spot = catalog.market("m4.large", PurchaseOption.SPOT)
        od = catalog.market("m4.large", PurchaseOption.ON_DEMAND)
        assert spot.name == "m4.large:spot"
        assert od.name == "m4.large:od"
        assert spot.revocable and not od.revocable


class TestCatalog:
    def test_default_has_conventional_x86_universe(self, catalog):
        assert len(catalog) == 40
        assert "m5.2xlarge" in catalog
        assert "p3.2xlarge" not in catalog  # no GPUs, as in the paper

    def test_spot_market_truncation(self, catalog):
        markets = catalog.spot_markets(36)
        assert len(markets) == 36
        assert all(m.option is PurchaseOption.SPOT for m in markets)

    def test_spot_market_count_validation(self, catalog):
        with pytest.raises(ValueError):
            catalog.spot_markets(0)
        with pytest.raises(ValueError):
            catalog.spot_markets(41)

    def test_all_markets_is_2s(self, catalog):
        assert len(catalog.all_markets()) == 2 * len(catalog)

    def test_subset_preserves_order(self, catalog):
        sub = catalog.subset(["r5.4xlarge", "m4.large"])
        assert [t.name for t in sub.types] == ["r5.4xlarge", "m4.large"]

    def test_duplicate_names_rejected(self):
        t = InstanceType("a.large", 2, 4.0, 0.1)
        with pytest.raises(ValueError, match="duplicate"):
            Catalog([t, t])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Catalog([])

    def test_unknown_lookup_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.type_named("nope.large")
