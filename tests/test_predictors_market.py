"""Unit tests for price and failure predictors."""

import numpy as np
import pytest

from repro.predictors import (
    AR1PricePredictor,
    OraclePricePredictor,
    ReactiveFailurePredictor,
    ReactivePricePredictor,
)


class TestReactivePrice:
    def test_persistence(self):
        p = ReactivePricePredictor(3)
        p.observe([1.0, 2.0, 3.0])
        out = p.predict(2)
        np.testing.assert_array_equal(out, [[1, 2, 3], [1, 2, 3]])

    def test_validation(self):
        p = ReactivePricePredictor(2)
        with pytest.raises(ValueError):
            p.observe([1.0])
        with pytest.raises(ValueError):
            p.predict(0)
        with pytest.raises(ValueError):
            ReactivePricePredictor(0)


class TestAR1Price:
    def test_mean_reversion_direction(self):
        """A price below its long-run mean must be forecast to rise."""
        rng = np.random.default_rng(0)
        p = AR1PricePredictor(1, window=200)
        # AR(1) path around mean 1.0 ending at a dip.
        x = 1.0
        for _ in range(150):
            x = 1.0 + 0.8 * (x - 1.0) + 0.05 * rng.standard_normal()
            p.observe([x])
        p.observe([0.5])  # sharp dip
        forecast = p.predict(5)[:, 0]
        assert forecast[0] > 0.5
        assert np.all(np.diff(forecast) > 0)  # relaxing towards the mean

    def test_short_history_persists(self):
        p = AR1PricePredictor(2)
        p.observe([1.0, 2.0])
        np.testing.assert_array_equal(p.predict(2), [[1, 2], [1, 2]])

    def test_cold_start(self):
        np.testing.assert_array_equal(AR1PricePredictor(2).predict(1), [[0, 0]])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            AR1PricePredictor(1, window=2)


class TestOraclePrice:
    def test_exact(self):
        prices = np.arange(12, dtype=np.float64).reshape(4, 3)
        p = OraclePricePredictor(prices)
        np.testing.assert_array_equal(p.predict(2), prices[:2])
        p.observe(prices[0])
        np.testing.assert_array_equal(p.predict(2), prices[1:3])

    def test_clamps(self):
        p = OraclePricePredictor(np.ones((2, 2)))
        p.observe(None)
        p.observe(None)
        assert p.predict(3).shape == (3, 2)


class TestFailurePredictors:
    def test_reactive(self):
        p = ReactiveFailurePredictor(2)
        p.observe([0.1, 0.2])
        np.testing.assert_array_equal(p.predict(3), np.tile([0.1, 0.2], (3, 1)))

    def test_reactive_validates_probs(self):
        p = ReactiveFailurePredictor(2)
        with pytest.raises(ValueError):
            p.observe([0.5, 1.5])

    def test_observe_many(self):
        p = ReactiveFailurePredictor(2)
        p.observe_many(np.array([[0.1, 0.1], [0.2, 0.3]]))
        np.testing.assert_array_equal(p.predict(1), [[0.2, 0.3]])
