"""Bundled market traces: prices + failure probabilities over time.

A :class:`MarketDataset` is the synthetic stand-in for the AWS data the paper
polls (spot price history + Spot Instance Advisor probabilities): a market
list plus aligned ``(T, N)`` matrices.  It is the single input format every
experiment consumes, so testbed-vs-synthetic substitution happens here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.devtools.contracts import field_units, units
from repro.markets.catalog import Catalog, Market, PurchaseOption, default_catalog
from repro.markets.price_process import generate_price_matrix
from repro.markets.revocation import (
    RevocationModel,
    event_covariance,
    failure_covariance,
)

__all__ = ["MarketDataset", "generate_market_dataset"]


@field_units(
    prices="usd/(server*hr)",
    failure_probs="frac",
    interval_seconds="s/interval",
    capacities="rps/server",
)
@dataclass
class MarketDataset:
    """Aligned market traces.

    Attributes
    ----------
    markets:
        The market universe, column order matching the matrices.
    prices:
        ``(T, N)`` price per server-hour.
    failure_probs:
        ``(T, N)`` revocation probability per interval.
    interval_seconds:
        Length of one row in seconds (default one hour, the paper's billing
        and re-optimization granularity).
    """

    markets: list[Market]
    prices: np.ndarray
    failure_probs: np.ndarray
    interval_seconds: float = 3600.0
    # Covariance estimation is O(T * N^2) and its inputs never change after
    # construction, yet CostSimulator rebuilds its sampler per policy run and
    # controllers re-derive M per construction — memoize per (kind, window).
    _cov_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.prices = np.atleast_2d(np.asarray(self.prices, dtype=np.float64))
        self.failure_probs = np.atleast_2d(
            np.asarray(self.failure_probs, dtype=np.float64)
        )
        if self.prices.shape != self.failure_probs.shape:
            raise ValueError("prices and failure_probs must have equal shape")
        if self.prices.shape[1] != len(self.markets):
            raise ValueError("matrix width must equal number of markets")
        if np.any(self.prices < 0):
            raise ValueError("prices must be non-negative")
        if np.any((self.failure_probs < 0) | (self.failure_probs > 1)):
            raise ValueError("failure probabilities must lie in [0, 1]")
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")

    @property
    def num_intervals(self) -> int:
        return self.prices.shape[0]

    @property
    def num_markets(self) -> int:
        return len(self.markets)

    @property
    def capacities(self) -> np.ndarray:
        """Per-market server capacity ``r_i`` in requests/second."""
        return np.array([m.capacity_rps for m in self.markets])

    @units(ret="usd/(rps*hr)")
    def per_request_costs(self) -> np.ndarray:
        """Adjusted cost per request ``C_t^i = price_t^i / r_i`` — ``(T, N)``."""
        return self.prices / self.capacities[None, :]

    def _memo_covariance(self, kind: str, window: slice | None) -> np.ndarray:
        key = (
            (kind, None)
            if window is None
            else (kind, window.start, window.stop, window.step)
        )
        cached = self._cov_cache.get(key)
        if cached is None:
            probs = (
                self.failure_probs if window is None else self.failure_probs[window]
            )
            fn = failure_covariance if kind == "dynamics" else event_covariance
            cached = fn(probs)
            cached.setflags(write=False)  # shared across callers — keep pure
            self._cov_cache[key] = cached
        return cached

    def covariance(self, window: slice | None = None) -> np.ndarray:
        """Dynamics covariance of failure probabilities (copula input).

        Memoized per window: repeat calls return the same read-only array.
        """
        return self._memo_covariance("dynamics", window)

    def event_covariance(self, window: slice | None = None) -> np.ndarray:
        """Revocation-event covariance ``M`` — the Eq. 5 risk matrix.

        Memoized per window: repeat calls return the same read-only array.
        """
        return self._memo_covariance("event", window)

    def save(self, path: str | Path) -> None:
        """Persist to ``.npz`` (markets serialized by name/option)."""
        np.savez_compressed(
            Path(path),
            prices=self.prices,
            failure_probs=self.failure_probs,
            interval_seconds=self.interval_seconds,
            market_names=np.array([m.instance.name for m in self.markets]),
            market_options=np.array([m.option.value for m in self.markets]),
        )

    @staticmethod
    def load(path: str | Path, catalog: Catalog | None = None) -> "MarketDataset":
        """Load a dataset saved with :meth:`save`."""
        catalog = catalog or default_catalog()
        data = np.load(Path(path), allow_pickle=False)
        markets = [
            Market(catalog.type_named(str(n)), PurchaseOption(str(o)))
            for n, o in zip(data["market_names"], data["market_options"])
        ]
        return MarketDataset(
            markets=markets,
            prices=data["prices"],
            failure_probs=data["failure_probs"],
            interval_seconds=float(data["interval_seconds"]),
        )


def generate_market_dataset(
    markets: list[Market] | None = None,
    intervals: int = 24 * 21,
    *,
    seed: int = 0,
    interval_seconds: float = 3600.0,
    family_correlation: float = 0.6,
    price_sensitivity: float = 0.5,
) -> MarketDataset:
    """Generate a synthetic dataset for a market universe.

    Defaults to three weeks of hourly data over all spot markets of the
    default catalog — the scale of the paper's simulation experiments.
    """
    if markets is None:
        markets = default_catalog().spot_markets()
    prices = generate_price_matrix(
        markets, intervals, seed=seed, family_correlation=family_correlation
    )
    model = RevocationModel(
        markets, seed=seed, price_sensitivity=price_sensitivity
    )
    failure_probs = model.probabilities(prices)
    return MarketDataset(
        markets=list(markets),
        prices=prices,
        failure_probs=failure_probs,
        interval_seconds=interval_seconds,
    )
