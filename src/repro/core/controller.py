"""The SpotWeb control loop.

``SpotWebController`` is the glue of Fig. 2: each interval it ingests the
monitoring feeds (observed workload, market prices, failure probabilities),
updates the three predictors, derives the padded capacity target, runs the
multi-period optimizer, and emits the decision the deployment layer needs —
server counts per market plus load-balancer weights.

The covariance matrix ``M`` is re-estimated from the failure-probability
history only every ``covariance_refresh`` intervals: changing ``M`` changes
the QP Hessian and forces a solver refactorization, while the paper observes
that revocation probabilities barely move.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.constraints import AllocationConstraints
from repro.core.costs import CostModel
from repro.core.mpo import MPOOptimizer, MPOResult
from repro.core.discretize import refine_counts
from repro.core.overprovision import CapacityPlanner, ShortfallTracker
from repro.core.portfolio import Allocation
from repro.core.reactive import ReactiveFallback
from repro.devtools.contracts import field_units, units
from repro.markets.catalog import Market
from repro.markets.revocation import event_covariance
from repro.obs import get_events, get_metrics, get_tracer
from repro.predictors.base import WorkloadPredictor
from repro.predictors.failure import FailurePredictor
from repro.predictors.price import PricePredictor
from repro.units import MS_PER_SECOND

__all__ = ["SpotWebController", "ControllerDecision"]

logger = logging.getLogger(__name__)


@field_units(counts="server", target_rps="req/s", weights="frac")
@dataclass
class ControllerDecision:
    """One interval's provisioning decision."""

    allocation: Allocation
    counts: np.ndarray
    target_rps: float
    weights: np.ndarray
    mpo: MPOResult

    @property
    def provisioned_rps(self) -> float:
        """Capacity actually deployed after integer rounding."""
        return float(self.counts @ self.allocation.capacities)


class SpotWebController:
    """Receding-horizon SpotWeb controller.

    Call :meth:`step` once per interval with the just-measured workload and
    the current market vectors; it returns the allocation to deploy for the
    *next* interval.
    """

    def __init__(
        self,
        markets: list[Market],
        workload_predictor: WorkloadPredictor,
        price_predictor: PricePredictor,
        failure_predictor: FailurePredictor,
        *,
        horizon: int = 4,
        cost_model: CostModel | None = None,
        constraints: AllocationConstraints | None = None,
        planner: CapacityPlanner | None = None,
        interval_hours: float = 1.0,
        covariance_refresh: int = 24,
        history_window: int = 336,
        fallback: ReactiveFallback | None = None,
        discretization: str = "ceil",
        backend: str = "auto",
    ) -> None:
        if covariance_refresh < 1:
            raise ValueError("covariance_refresh must be >= 1")
        if discretization not in ("ceil", "refine"):
            raise ValueError("discretization must be 'ceil' or 'refine'")
        self.markets = list(markets)
        self.workload_predictor = workload_predictor
        self.price_predictor = price_predictor
        self.failure_predictor = failure_predictor
        self.planner = planner or CapacityPlanner()
        self.shortfall = ShortfallTracker()
        self.optimizer = MPOOptimizer(
            markets,
            horizon=horizon,
            cost_model=cost_model,
            constraints=constraints,
            interval_hours=interval_hours,
            backend=backend,
        )
        self.covariance_refresh = int(covariance_refresh)
        self._failure_history: deque[np.ndarray] = deque(maxlen=history_window)
        self._covariance: np.ndarray | None = None
        self._steps = 0
        self._current_fractions = np.zeros(len(self.markets))
        self._last_target: float | None = None
        self.fallback = fallback
        self.discretization = discretization
        self._last_provisioned_rps: float | None = None

    @property
    def horizon(self) -> int:
        return self.optimizer.horizon

    @property
    def current_fractions(self) -> np.ndarray:
        return self._current_fractions.copy()

    def _refresh_covariance(self) -> np.ndarray:
        if (
            self._covariance is None
            or self._steps % self.covariance_refresh == 0
        ):
            if len(self._failure_history) >= 2:
                self._covariance = event_covariance(
                    np.asarray(self._failure_history)
                )
            else:
                # Cold start: diagonal Bernoulli-variance proxy.
                probs = (
                    self._failure_history[-1]
                    if self._failure_history
                    else np.zeros(len(self.markets))
                )
                self._covariance = np.diag(probs * (1 - probs) + 1e-6)
        return self._covariance

    @units("req/s", "usd/(server*hr)", "frac")
    def step(
        self,
        observed_rps: float,
        prices: np.ndarray,
        failure_probs: np.ndarray,
    ) -> ControllerDecision:
        """Advance one interval and decide the next allocation.

        Parameters
        ----------
        observed_rps:
            Mean request rate measured over the just-finished interval.
        prices:
            Current ``(N,)`` market prices ($/hour).
        failure_probs:
            Current ``(N,)`` revocation probabilities.
        """
        observed_rps = float(observed_rps)
        if observed_rps < 0:
            raise ValueError("observed_rps must be non-negative")
        prices = np.asarray(prices, dtype=np.float64).ravel()
        failure_probs = np.asarray(failure_probs, dtype=np.float64).ravel()
        n = len(self.markets)
        if prices.shape != (n,) or failure_probs.shape != (n,):
            raise ValueError("prices/failure_probs must have one entry per market")

        tracer = get_tracer()
        with tracer.span("controller.step", step=self._steps) as step_span:
            # Score the previous decision's target against reality, learn.
            with tracer.span("controller.observe"):
                if self._last_target is not None:
                    self.shortfall.record(observed_rps, self._last_target)
                self.workload_predictor.observe(observed_rps)
                self.price_predictor.observe(prices)
                self.failure_predictor.observe(failure_probs)
                self._failure_history.append(failure_probs.copy())

            H = self.horizon
            with tracer.span("controller.predict"):
                prediction = self.workload_predictor.predict(H)
                targets = self.planner.targets(prediction)
                price_forecast = self.price_predictor.predict(H)
                failure_forecast = self.failure_predictor.predict(H)
                covariance = self._refresh_covariance()

            with tracer.span(
                "controller.solve", backend=self.optimizer.resolved_backend
            ) as solve_span:
                result = self.optimizer.optimize(
                    targets,
                    price_forecast,
                    failure_forecast,
                    covariance,
                    current_fractions=self._current_fractions,
                    expected_shortfall_rps=self.shortfall.expected_shortfall_rps,
                )
                solve_span.tag(
                    iterations=result.solver.iterations,
                    status=result.solver.status.value,
                )
            get_metrics().histogram("controller.solve_ms").observe(
                MS_PER_SECOND * result.solver.solve_time
            )
            self._steps += 1

            allocation = result.plan.first
            target = float(targets[0])
            with tracer.span("controller.discretize", mode=self.discretization):
                if self.discretization == "refine":
                    # Cost-aware integer repair: covers the target like ceil
                    # but without the one-extra-server-per-market overshoot.
                    counts = refine_counts(
                        allocation.fractions,
                        target,
                        allocation.capacities,
                        prices,
                    )
                else:
                    counts = allocation.counts(target)

            with tracer.span("controller.actuate"):
                # Reactive fallback (Sec. 6.2): when the previous interval's
                # deployed capacity fell short of realized demand beyond
                # padding, add an emergency non-revocable top-up for the
                # coming interval.
                if self.fallback is not None:
                    if self._last_provisioned_rps is not None:
                        self.fallback.update(
                            observed_rps, self._last_provisioned_rps
                        )
                    counts = counts + self.fallback.topup_counts(prices)

                self._current_fractions = allocation.fractions.copy()
                self._last_target = target
                logger.debug(
                    "step %d: observed=%.1f rps target=%.1f rps servers=%d "
                    "active_markets=%d solver=%s/%d-iter",
                    self._steps,
                    observed_rps,
                    target,
                    int(counts.sum()),
                    int((counts > 0).sum()),
                    result.solver.status.value,
                    result.solver.iterations,
                )
                self._last_provisioned_rps = float(
                    counts @ np.array([m.capacity_rps for m in self.markets])
                )
                decision = ControllerDecision(
                    allocation=allocation,
                    counts=counts,
                    target_rps=target,
                    weights=allocation.weights(),
                    mpo=result,
                )
            step_span.tag(servers=int(counts.sum()), target_rps=target)
        ev = get_events()
        if ev.enabled:
            # The controller runs once per interval; its own step counter is
            # the interval key (it has no sim clock of its own).
            ev.emit(
                "controller.plan",
                interval=self._steps - 1,
                observed_rps=observed_rps,
                target_rps=target,
                servers=int(counts.sum()),
                active_markets=int((counts > 0).sum()),
                solver_status=result.solver.status.value,
                solver_iterations=int(result.solver.iterations),
            )
        get_metrics().counter("controller.steps").inc()
        return decision
