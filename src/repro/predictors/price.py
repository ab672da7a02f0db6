"""Per-market price predictors.

The optimizer consumes an ``(H, N)`` matrix of predicted prices.  Providers
with fixed discounts reduce to the reactive predictor; EC2-style markets
benefit from the AR(1) form.  The oracle wraps the true price matrix for
upper-bound experiments.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = [
    "PricePredictor",
    "ReactivePricePredictor",
    "AR1PricePredictor",
    "OraclePricePredictor",
]


class PricePredictor(abc.ABC):
    """Streaming multi-horizon, multi-market price predictor."""

    @abc.abstractmethod
    def observe(self, prices: np.ndarray) -> None:
        """Record the current per-market price vector."""

    @abc.abstractmethod
    def predict(self, horizon: int) -> np.ndarray:
        """Forecast an ``(horizon, N)`` price matrix."""

    def observe_many(self, price_matrix: np.ndarray) -> None:
        for row in np.atleast_2d(np.asarray(price_matrix, dtype=np.float64)):
            self.observe(row)


class ReactivePricePredictor(PricePredictor):
    """Next prices equal current prices (the paper's fixed-price fallback)."""

    def __init__(self, num_markets: int) -> None:
        if num_markets < 1:
            raise ValueError("num_markets must be >= 1")
        self._last = np.zeros(num_markets)

    def observe(self, prices: np.ndarray) -> None:
        prices = np.asarray(prices, dtype=np.float64).ravel()
        if prices.shape != self._last.shape:
            raise ValueError("price vector has wrong length")
        self._last = prices.copy()

    def predict(self, horizon: int) -> np.ndarray:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return np.tile(self._last, (horizon, 1))


class AR1PricePredictor(PricePredictor):
    """Per-market AR(1) around a running mean, iterated over the horizon.

    Captures the mean-reverting character of spot prices: forecasts relax
    from the current price towards the market's long-run level at the fitted
    reversion rate.  Coefficients are re-estimated online from a rolling
    window (no look-ahead).
    """

    def __init__(self, num_markets: int, *, window: int = 336) -> None:
        if window < 8:
            raise ValueError("window must be >= 8")
        self._n = int(num_markets)
        self._window = int(window)
        self._history: list[np.ndarray] = []

    def observe(self, prices: np.ndarray) -> None:
        prices = np.asarray(prices, dtype=np.float64).ravel()
        if prices.size != self._n:
            raise ValueError("price vector has wrong length")
        self._history.append(prices.copy())
        if len(self._history) > self._window:
            self._history.pop(0)

    def predict(self, horizon: int) -> np.ndarray:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not self._history:
            return np.zeros((horizon, self._n))
        hist = np.asarray(self._history)
        last = hist[-1]
        if hist.shape[0] < 8:
            return np.tile(last, (horizon, 1))
        mu = hist.mean(axis=0)
        dev = hist - mu[None, :]
        num = np.sum(dev[1:] * dev[:-1], axis=0)
        den = np.sum(dev[:-1] ** 2, axis=0)
        phi = np.where(den > 1e-12, num / np.maximum(den, 1e-12), 0.0)
        phi = np.clip(phi, 0.0, 0.995)
        out = np.empty((horizon, self._n))
        cur = last - mu
        for h in range(horizon):
            cur = phi * cur
            out[h] = np.clip(mu + cur, 0.0, None)
        return out


class OraclePricePredictor(PricePredictor):
    """Wraps the true future price matrix (Fig. 5 / Fig. 6(a) experiments)."""

    def __init__(self, price_matrix: np.ndarray) -> None:
        self._prices = np.atleast_2d(np.asarray(price_matrix, dtype=np.float64))
        self._cursor = 0

    def observe(self, prices: np.ndarray) -> None:
        self._cursor += 1

    def predict(self, horizon: int) -> np.ndarray:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        idx = np.minimum(
            np.arange(self._cursor, self._cursor + horizon),
            self._prices.shape[0] - 1,
        )
        return self._prices[idx]
