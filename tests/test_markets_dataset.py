"""Unit tests for MarketDataset."""

import numpy as np
import pytest

from repro.markets import MarketDataset, default_catalog, generate_market_dataset


class TestGenerate:
    def test_default_scale(self, small_dataset, small_markets):
        assert small_dataset.num_markets == len(small_markets)
        assert small_dataset.num_intervals == 7 * 24

    def test_deterministic(self, small_markets):
        a = generate_market_dataset(small_markets, intervals=48, seed=9)
        b = generate_market_dataset(small_markets, intervals=48, seed=9)
        np.testing.assert_array_equal(a.prices, b.prices)
        np.testing.assert_array_equal(a.failure_probs, b.failure_probs)

    def test_per_request_costs(self, small_dataset):
        C = small_dataset.per_request_costs()
        manual = small_dataset.prices[3, 2] / small_dataset.markets[2].capacity_rps
        assert C[3, 2] == pytest.approx(manual)


class TestValidation:
    def test_shape_mismatch(self, small_markets):
        with pytest.raises(ValueError, match="equal shape"):
            MarketDataset(small_markets, np.ones((5, 6)), np.ones((4, 6)))

    def test_width_mismatch(self, small_markets):
        with pytest.raises(ValueError, match="width"):
            MarketDataset(small_markets, np.ones((5, 3)), np.ones((5, 3)))

    def test_negative_prices(self, small_markets):
        prices = -np.ones((5, 6))
        with pytest.raises(ValueError, match="non-negative"):
            MarketDataset(small_markets, prices, np.zeros((5, 6)))

    def test_bad_probabilities(self, small_markets):
        with pytest.raises(ValueError, match="probabilities"):
            MarketDataset(small_markets, np.ones((5, 6)), 2 * np.ones((5, 6)))


class TestRoundTrip:
    def test_save_load(self, small_dataset, tmp_path):
        path = tmp_path / "ds.npz"
        small_dataset.save(path)
        loaded = MarketDataset.load(path, default_catalog())
        np.testing.assert_array_equal(loaded.prices, small_dataset.prices)
        np.testing.assert_array_equal(
            loaded.failure_probs, small_dataset.failure_probs
        )
        assert [m.name for m in loaded.markets] == [
            m.name for m in small_dataset.markets
        ]
        assert loaded.interval_seconds == small_dataset.interval_seconds


class TestCovariances:
    def test_event_covariance_pd(self, small_dataset):
        M = small_dataset.event_covariance()
        assert np.all(np.linalg.eigvalsh(M) > 0)

    def test_windowed(self, small_dataset):
        M_full = small_dataset.event_covariance()
        M_win = small_dataset.event_covariance(window=slice(0, 24))
        assert M_full.shape == M_win.shape
        assert not np.allclose(M_full, M_win)
