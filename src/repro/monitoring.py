"""SpotWeb's system-monitoring component (Fig. 2).

The monitoring hub aggregates the three feeds the optimizer depends on —
market prices, revocation probabilities, and the request rate observed
at the load balancer — performs the data cleaning the paper describes
(per-request price conversion), and hands the controller one immutable
snapshot per interval.

The hub also relays revocation warnings from the cloud to the load
balancer, which is exactly its role in the paper's architecture ("On a
revocation warning, the monitoring system forwards it to the Load
balancer").
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.devtools.contracts import freeze_arrays, per_request_prices, shapes
from repro.markets.catalog import Market
from repro.obs import get_metrics, get_tracer

__all__ = ["MonitoringSnapshot", "MonitoringHub"]

#: Past snapshots retained (for covariance estimation and debugging): two
#: weeks of hourly intervals.
_HISTORY = 336


@dataclass(frozen=True)
class MonitoringSnapshot:
    """Everything the controller needs for one decision interval.

    Genuinely immutable: the array fields are made read-only on
    construction, so a snapshot handed to the controller can never be
    corrupted by a downstream consumer.
    """

    timestamp: float
    prices: np.ndarray  # (N,) $/hour
    per_request_prices: np.ndarray  # (N,) $/hour per req/s — the cleaned feed
    failure_probs: np.ndarray  # (N,)
    observed_rps: float

    def __post_init__(self) -> None:
        freeze_arrays(self, "prices", "per_request_prices", "failure_probs")


class MonitoringHub:
    """Aggregates market + application monitoring into snapshots.

    Parameters
    ----------
    markets:
        The market universe; fixes the vector layout.
    """

    def __init__(self, markets: list[Market]) -> None:
        if not markets:
            raise ValueError("need at least one market")
        self.markets = list(markets)
        self.capacities = np.array([m.capacity_rps for m in markets])
        self._prices: np.ndarray | None = None
        self._failure_probs: np.ndarray | None = None
        self._observed_rps: float = 0.0
        self._snapshots: deque[MonitoringSnapshot] = deque(maxlen=_HISTORY)
        self._warning_listeners: list[Callable[[int, float], None]] = []

    # ------------------------------------------------------------------ feeds
    @shapes("(N,)")
    def ingest_prices(self, prices: np.ndarray) -> None:
        prices = np.asarray(prices, dtype=np.float64).ravel()
        if prices.shape != (len(self.markets),):
            raise ValueError("price vector has wrong length")
        if np.any(prices < 0):
            raise ValueError("prices must be non-negative")
        self._prices = prices.copy()

    @shapes("(N,)")
    def ingest_failure_probs(self, probs: np.ndarray) -> None:
        probs = np.asarray(probs, dtype=np.float64).ravel()
        if probs.shape != (len(self.markets),):
            raise ValueError("probability vector has wrong length")
        if np.any((probs < 0) | (probs > 1)):
            raise ValueError("probabilities must lie in [0, 1]")
        self._failure_probs = probs.copy()

    def ingest_workload(self, observed_rps: float) -> None:
        if observed_rps < 0:
            raise ValueError("observed_rps must be non-negative")
        self._observed_rps = float(observed_rps)

    # --------------------------------------------------------------- warnings
    def on_warning(self, listener: Callable[[int, float], None]) -> None:
        """Register a warning relay target (the load balancer)."""
        self._warning_listeners.append(listener)

    def relay_warning(self, backend_id: int, now: float) -> None:
        """Forward a cloud revocation warning to all listeners."""
        get_metrics().counter("monitor.warnings_relayed").inc()
        for listener in self._warning_listeners:
            listener(backend_id, now)

    # -------------------------------------------------------------- snapshots
    def snapshot(self, timestamp: float) -> MonitoringSnapshot:
        """Freeze the current feeds into one decision input.

        Raises ``RuntimeError`` if a mandatory feed has never been ingested.
        """
        if self._prices is None:
            raise RuntimeError("no price feed ingested yet")
        if self._failure_probs is None:
            raise RuntimeError("no failure-probability feed ingested yet")
        with get_tracer().span("monitor.snapshot", timestamp=float(timestamp)):
            snap = MonitoringSnapshot(
                timestamp=float(timestamp),
                prices=self._prices.copy(),
                per_request_prices=per_request_prices(
                    self._prices, self.capacities
                ),
                failure_probs=self._failure_probs.copy(),
                observed_rps=self._observed_rps,
            )
        self._snapshots.append(snap)
        return snap

    @property
    def snapshots(self) -> list[MonitoringSnapshot]:
        return list(self._snapshots)

    def failure_history(self) -> np.ndarray:
        """(T, N) failure-probability history from retained snapshots."""
        if not self._snapshots:
            return np.zeros((0, len(self.markets)))
        return np.stack([s.failure_probs for s in self._snapshots])

    def price_history(self) -> np.ndarray:
        """(T, N) price history from retained snapshots."""
        if not self._snapshots:
            return np.zeros((0, len(self.markets)))
        return np.stack([s.prices for s in self._snapshots])
