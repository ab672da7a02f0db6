"""ExoSphere-in-a-loop: single-period portfolio selection every interval.

The paper's main comparator (Fig. 6(b)): "simply using ExoSphere in a loop,
re-evaluating the portfolio in every time step based on the current load,
and the price and failure history."  Characteristics reproduced here:

- **Backward-looking**: the implicit forecast is persistence — current
  prices, current failure probabilities, current demand.
- **Not SLO-aware**: no SLA penalty term and no CI padding; it provisions
  exactly the observed demand (``A_Min = 1``).
- Same risk-adjusted-cost objective and solver as SpotWeb, so the cost gap
  measures look-ahead, not implementation.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.baselines.targets import TargetFn, reactive_target
from repro.core.constraints import AllocationConstraints
from repro.core.costs import CostModel
from repro.core.spo import SPOOptimizer
from repro.markets.catalog import Market
from repro.markets.revocation import event_covariance

__all__ = ["ExoSphereLoopPolicy"]

#: Failure-probability rows kept for the covariance estimate: two weeks of
#: hourly intervals, as SpotWeb's controller keeps.
_HISTORY_WINDOW = 336


class ExoSphereLoopPolicy:
    """SPO re-run per interval with reactive inputs."""

    def __init__(
        self,
        markets: list[Market],
        *,
        risk_aversion: float = 5.0,
        constraints: AllocationConstraints | None = None,
        target_fn: TargetFn | None = None,
        covariance_refresh: int = 24,
    ) -> None:
        # ExoSphere's objective is risk-adjusted cost only: no SLA term.
        cost_model = CostModel(
            penalty=0.0, long_running_fraction=0.0, risk_aversion=risk_aversion
        )
        self.optimizer = SPOOptimizer(
            markets, cost_model=cost_model, constraints=constraints
        )
        self.markets = list(markets)
        self.capacities = np.array([m.capacity_rps for m in markets])
        self.target_fn = target_fn or reactive_target()
        self.covariance_refresh = int(covariance_refresh)
        self._failure_history: deque[np.ndarray] = deque(maxlen=_HISTORY_WINDOW)
        self._covariance: np.ndarray | None = None
        self._fractions = np.zeros(len(markets))
        self._steps = 0

    def _refresh_covariance(self, failure_probs: np.ndarray) -> np.ndarray:
        self._failure_history.append(failure_probs.copy())
        if self._covariance is None or self._steps % self.covariance_refresh == 0:
            if len(self._failure_history) >= 2:
                self._covariance = event_covariance(
                    np.asarray(self._failure_history)
                )
            else:
                self._covariance = np.diag(
                    failure_probs * (1 - failure_probs) + 1e-6
                )
        return self._covariance

    def decide(
        self,
        t: int,
        observed_rps: float,
        prices: np.ndarray,
        failure_probs: np.ndarray,
    ) -> np.ndarray:
        prices = np.asarray(prices, dtype=np.float64).ravel()
        failure_probs = np.asarray(failure_probs, dtype=np.float64).ravel()
        covariance = self._refresh_covariance(failure_probs)
        target = max(0.0, float(self.target_fn(t, observed_rps)))
        result = self.optimizer.optimize(
            target,
            prices,
            failure_probs,
            covariance,
            current_fractions=self._fractions,
        )
        self._steps += 1
        allocation = result.plan.first
        self._fractions = allocation.fractions.copy()
        return allocation.counts(target)
