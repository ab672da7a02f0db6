"""Unit tests for availability-zone market expansion."""

import numpy as np
import pytest

from repro.markets.zones import expand_zones, market_universe


class TestExpandZones:
    def test_cross_product_size(self, catalog):
        markets = expand_zones(catalog, zones=("a", "b", "c"))
        assert len(markets) == 3 * len(catalog)

    def test_type_truncation(self, catalog):
        markets = expand_zones(catalog, zones=("a", "b"), types=10)
        assert len(markets) == 20

    def test_names_carry_zone(self, catalog):
        markets = expand_zones(catalog, zones=("a",), types=1)
        assert markets[0].name.endswith(":a:spot")
        assert markets[0].capacity_rps == markets[0].market.capacity_rps
        assert markets[0].revocable

    def test_duplicate_zone_rejected(self, catalog):
        with pytest.raises(ValueError):
            expand_zones(catalog, zones=("a", "a"))
        with pytest.raises(ValueError):
            expand_zones(catalog, zones=())


class TestZoneDataset:
    def test_hundreds_of_markets_universe(self, catalog):
        markets = expand_zones(catalog, zones=("a", "b", "c"))
        assert len(markets) == 120  # the paper's "hundreds" scale


class TestZoneMarketsInOptimizer:
    def test_optimizer_runs_on_zone_universe(self):
        from repro.core import MPOOptimizer
        from repro.markets import generate_market_dataset

        markets = market_universe(50)
        assert len(markets) == 50 and all(m.revocable for m in markets)
        dataset = generate_market_dataset(markets, intervals=10, seed=1)
        opt = MPOOptimizer(dataset.markets, horizon=2)
        res = opt.optimize(
            np.array([5000.0, 5000.0]),
            dataset.prices[:2],
            dataset.failure_probs[:2],
            dataset.event_covariance(),
        )
        assert res.solver.status.ok
        assert res.plan.fractions.shape == (2, 50)
