"""Unit tests for the reactive fallback provisioner (Sec. 6.2)."""

import numpy as np
import pytest

from repro.core import ReactiveFallback
from repro.markets import PurchaseOption


@pytest.fixture
def mixed_markets(catalog):
    spot = catalog.spot_markets(4)
    od = [catalog.market(m.instance.name, PurchaseOption.ON_DEMAND) for m in spot]
    return spot + od


class TestTriggering:
    def test_clean_interval_no_boost(self, mixed_markets):
        fb = ReactiveFallback(mixed_markets)
        fb.update(demand_rps=1000.0, served_capacity_rps=1100.0)
        assert fb.boost_rps == 0.0
        assert fb.activations == 0

    def test_shortfall_arms_boost(self, mixed_markets):
        fb = ReactiveFallback(mixed_markets, boost_factor=1.5)
        fb.update(demand_rps=1000.0, served_capacity_rps=800.0)
        assert fb.boost_rps == pytest.approx(1.5 * 200.0)
        assert fb.activations == 1

    def test_boost_decays_after_recovery(self, mixed_markets):
        fb = ReactiveFallback(mixed_markets, decay=0.5)
        fb.update(1000.0, 800.0)
        fb.update(1000.0, 1200.0)
        assert fb.boost_rps == pytest.approx(0.5 * 1.5 * 200.0)
        for _ in range(60):
            fb.update(1000.0, 1200.0)
        assert fb.boost_rps == 0.0

    def test_small_shortfall_below_trigger_ignored(self, mixed_markets):
        fb = ReactiveFallback(mixed_markets, trigger_fraction=0.05)
        fb.update(1000.0, 990.0)  # 1% shortfall < 5% trigger
        assert fb.boost_rps == 0.0


class TestTopUp:
    def test_prefers_ondemand_markets(self, mixed_markets):
        fb = ReactiveFallback(mixed_markets)
        fb.update(1000.0, 500.0)
        counts = fb.topup_counts(np.ones(8))
        for i, m in enumerate(mixed_markets):
            if counts[i] > 0:
                assert not m.revocable

    def test_topup_covers_boost(self, mixed_markets):
        fb = ReactiveFallback(mixed_markets, boost_factor=1.0)
        fb.update(1000.0, 600.0)
        counts = fb.topup_counts(np.ones(8))
        caps = np.array([m.capacity_rps for m in mixed_markets])
        assert counts @ caps >= 400.0

    def test_spot_only_universe_falls_back(self, small_markets):
        fb = ReactiveFallback(small_markets)
        fb.update(1000.0, 500.0)
        counts = fb.topup_counts(np.ones(6))
        assert counts.sum() > 0

    def test_no_boost_no_counts(self, mixed_markets):
        fb = ReactiveFallback(mixed_markets)
        counts = fb.topup_counts(np.ones(8))
        assert counts.sum() == 0

    def test_spread_over_two_markets(self, mixed_markets):
        fb = ReactiveFallback(mixed_markets)
        fb.update(100_000.0, 10_000.0)
        counts = fb.topup_counts(np.ones(8))
        assert (counts > 0).sum() == 2


class TestValidation:
    def test_params(self, small_markets):
        with pytest.raises(ValueError):
            ReactiveFallback([])
        with pytest.raises(ValueError):
            ReactiveFallback(small_markets, boost_factor=0.0)
        with pytest.raises(ValueError):
            ReactiveFallback(small_markets, decay=1.0)
        with pytest.raises(ValueError):
            ReactiveFallback(small_markets, trigger_fraction=-0.1)

    def test_update_validation(self, small_markets):
        fb = ReactiveFallback(small_markets)
        with pytest.raises(ValueError):
            fb.update(-1.0, 0.0)

    def test_topup_price_length(self, small_markets):
        fb = ReactiveFallback(small_markets)
        fb.update(100.0, 0.0)
        with pytest.raises(ValueError):
            fb.topup_counts(np.ones(2))
