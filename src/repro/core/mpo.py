"""Multi-period portfolio optimization — the SpotWeb optimizer (Eq. 6).

The program over a horizon ``H`` and ``N`` markets, with decision variables
``A_tau^i`` (fraction of interval ``tau``'s predicted workload on market
``i``), is::

    minimize    sum_tau [ provisioning(A_tau) + sla(A_tau)
                          + alpha * A_tau' M A_tau
                          + gamma * ||A_tau - A_{tau-1}||^2 ]
    subject to  0 <= A_tau^i <= a_max
                A_Min <= sum_i A_tau^i <= A_Max

with ``A_0`` the currently deployed allocation (so the churn term also
penalizes deviating from what is already running — the "transaction cost" of
multi-period portfolio theory).  ``E[Return]`` is zero per the paper, which
turns the objective into pure cost minimization.

Everything is linear or convex-quadratic, so the program is a QP.  The
Hessian and constraint matrix depend only on ``(N, H, M, alpha, gamma)``;
the optimizer builds a structure descriptor and a factorized solver once
per such key and warm-starts consecutive solves — this is what makes it
"highly scalable, requiring subseconds to 5 seconds" (Fig. 7(b)) and lets
it consider hundreds of markets where Tributary's exponential-time
selection cannot.

Solver backends (``backend=``):

- ``"auto"`` (default) — the structured block-tridiagonal path
  (:class:`repro.solvers.StructuredADMMSolver`, O(H·N³) factorization) once
  the program is big enough to amortize its per-iteration Python overhead,
  the dense path below it.
- ``"structured"`` / ``"admm"`` — force one path (tests, benchmarks).

Warm starting is **horizon-shifted**: the receding-horizon loop executes
only period 0 of each plan, so the best seed for the next solve is the
previous plan shifted forward one period (its last period duplicated), not
the currently deployed allocation tiled ``H`` times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.constraints import AllocationConstraints
from repro.core.costs import CostModel
from repro.core.portfolio import PortfolioPlan
from repro.devtools.contracts import field_units, shapes, units
from repro.markets.catalog import Market
from repro.obs import get_metrics, get_tracer
from repro.solvers import (
    ADMMCore,
    ADMMSolver,
    MPOStructure,
    SolverResult,
    StructuredADMMSolver,
)

__all__ = ["MPOOptimizer", "MPOResult", "STRUCTURED_MIN_VARS"]

# "auto" switches to the block-tridiagonal path at this many variables
# (N * H).  Below it the dense path's tiny BLAS calls win over the
# structured path's extra per-iteration Python; the repro.bench MPO suite
# and the CI perf-smoke job watch the crossover.
STRUCTURED_MIN_VARS = 96


@dataclass(frozen=True)
class MPOResult:
    """Outcome of one receding-horizon optimization step."""

    plan: PortfolioPlan
    solver: SolverResult
    provisioning_cost: float
    sla_cost: float
    risk: float

    @property
    def objective(self) -> float:
        return self.solver.objective


@field_units(capacities="rps/server", interval_hours="hr")
class MPOOptimizer:
    """SpotWeb's multi-period, SLO-aware server-portfolio optimizer.

    Parameters
    ----------
    markets:
        The market universe (column order fixed for the optimizer lifetime).
    horizon:
        Look-ahead ``H`` in intervals; ``H = 1`` degenerates to single-period
        (ExoSphere-style) selection.
    cost_model, constraints:
        See :class:`CostModel` and :class:`AllocationConstraints`.
    interval_hours:
        Billing length of one interval.
    """

    def __init__(
        self,
        markets: list[Market],
        *,
        horizon: int = 4,
        cost_model: CostModel | None = None,
        constraints: AllocationConstraints | None = None,
        interval_hours: float = 1.0,
        solver_options: dict | None = None,
        backend: str = "auto",
    ) -> None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not markets:
            raise ValueError("need at least one market")
        if interval_hours <= 0:
            raise ValueError("interval_hours must be positive")
        if backend not in ("auto", "admm", "structured"):
            raise ValueError("backend must be 'auto', 'admm' or 'structured'")
        self.backend = backend
        self.markets = list(markets)
        self.horizon = int(horizon)
        self.cost_model = cost_model or CostModel()
        self.constraints = constraints or AllocationConstraints()
        # An unreachable allocation box raises here, not at the first solve.
        self.constraints.build_bounds(len(self.markets), self.horizon)
        self.interval_hours = float(interval_hours)
        self.solver_options = dict(solver_options or {})
        self.capacities = np.array([m.capacity_rps for m in self.markets])
        self._solver: ADMMCore | None = None
        self._solver_key: tuple | None = None
        self._structure: MPOStructure | None = None
        self._bounds: tuple[np.ndarray, np.ndarray] | None = None
        self._last_plan: np.ndarray | None = None

    @property
    def num_markets(self) -> int:
        return len(self.markets)

    @property
    def resolved_backend(self) -> str:
        """The concrete solve path ``"auto"`` resolves to for this size."""
        if self.backend != "auto":
            return self.backend
        if self.num_markets * self.horizon >= STRUCTURED_MIN_VARS:
            return "structured"
        return "admm"

    # ------------------------------------------------------------- QP pieces
    def _structure_for(self, covariance: np.ndarray) -> MPOStructure:
        """Block descriptor of the QP — built once per ``(N, H, M, α, γ)``."""
        return MPOStructure(
            num_markets=self.num_markets,
            horizon=self.horizon,
            risk=2.0 * self.cost_model.risk_aversion * covariance,
            churn=2.0 * self.cost_model.churn_penalty,
        )

    def _hessian(self, covariance: np.ndarray) -> np.ndarray:
        """``P`` of the QP: block-diagonal risk + tridiagonal churn."""
        # The sigma regularizer in the solver handles gamma == alpha == 0.
        return self._structure_for(covariance).dense_hessian()

    def _ensure_solver(self, covariance: np.ndarray) -> None:
        key = (
            self.num_markets,
            self.horizon,
            self.cost_model.risk_aversion,
            self.cost_model.churn_penalty,
            covariance.tobytes(),
            self.constraints,
            self.resolved_backend,
        )
        if key == self._solver_key:
            return
        N, H = self.num_markets, self.horizon
        backend = self.resolved_backend
        self._structure = self._structure_for(covariance)
        self._bounds = self.constraints.build_bounds(N, H)
        if backend == "structured":
            self._solver = StructuredADMMSolver(
                self._structure, **self.solver_options
            )
        else:
            rows, _lower, _upper = self.constraints.build_rows(N, H)
            self._solver = ADMMSolver(
                self._structure.dense_hessian(), rows, **self.solver_options
            )
        self._solver_key = key
        self._last_plan = None

    def _warm_start_vector(self, current_fractions: np.ndarray) -> np.ndarray:
        """Seed for the next solve.

        Receding horizon executes only period 0, so the previous plan
        shifted forward one period (last period duplicated) is the natural
        prediction of the new optimum; before any plan exists, fall back to
        tiling the deployed allocation.
        """
        if self._last_plan is not None:
            return np.concatenate(
                [self._last_plan[1:].ravel(), self._last_plan[-1]]
            )
        return np.tile(current_fractions, self.horizon)

    # ---------------------------------------------------------------- solve
    @shapes(
        "()|(H,)",
        "(N,)|(H,N)",
        "(N,)|(H,N)",
        "(N,N)",
        current_fractions="(N,)",
    )
    @units(
        "req/s",
        "usd/(server*hr)",
        "frac",
        None,
        current_fractions="frac",
        expected_shortfall_rps="req/s",
    )
    def optimize(
        self,
        predicted_rps: np.ndarray,
        prices: np.ndarray,
        failure_probs: np.ndarray,
        covariance: np.ndarray,
        *,
        current_fractions: np.ndarray | None = None,
        expected_shortfall_rps: float | np.ndarray = 0.0,
    ) -> MPOResult:
        """Plan allocations for the next ``H`` intervals; execute the first.

        Parameters
        ----------
        predicted_rps:
            ``(H,)`` capacity targets (the CI upper bounds from the
            predictor — padding happens upstream, in ``CapacityPlanner``).
        prices:
            ``(H, N)`` predicted price per server-hour.
        failure_probs:
            ``(H, N)`` predicted revocation probabilities.
        covariance:
            ``(N, N)`` revocation covariance ``M``.
        current_fractions:
            ``A_0`` — the allocation currently deployed (for churn costs).
        expected_shortfall_rps:
            Scalar or ``(H,)`` expected under-prediction charged a priori to
            the SLA term (the tracked MAE of Sec. 4.2).
        """
        N, H = self.num_markets, self.horizon
        predicted_rps = np.asarray(predicted_rps, dtype=np.float64).ravel()
        prices = np.atleast_2d(np.asarray(prices, dtype=np.float64))
        failure_probs = np.atleast_2d(np.asarray(failure_probs, dtype=np.float64))
        covariance = np.atleast_2d(np.asarray(covariance, dtype=np.float64))
        if predicted_rps.shape != (H,):
            raise ValueError(f"predicted_rps must have {H} entries")
        if prices.shape != (H, N):
            raise ValueError(f"prices must be ({H}, {N})")
        if failure_probs.shape != (H, N):
            raise ValueError(f"failure_probs must be ({H}, {N})")
        if covariance.shape != (N, N):
            raise ValueError(f"covariance must be ({N}, {N})")
        if np.any(predicted_rps < 0):
            raise ValueError("predicted_rps must be non-negative")
        shortfall = np.broadcast_to(
            np.asarray(expected_shortfall_rps, dtype=np.float64), (H,)
        )
        if current_fractions is None:
            current_fractions = np.zeros(N)
        current_fractions = np.asarray(current_fractions, dtype=np.float64).ravel()
        if current_fractions.shape != (N,):
            raise ValueError(f"current_fractions must have {N} entries")

        tracer = get_tracer()
        with tracer.span("mpo.setup", backend=self.resolved_backend):
            self._ensure_solver(covariance)
        per_request_cost = prices / self.capacities[None, :]

        q = np.zeros(N * H)
        for tau in range(H):
            block = slice(tau * N, (tau + 1) * N)
            q[block] = self.cost_model.provisioning_coefficients(
                per_request_cost[tau], predicted_rps[tau], self.interval_hours
            )
            q[block] += self.cost_model.sla_coefficients(
                failure_probs[tau],
                predicted_rps[tau],
                float(shortfall[tau]),
                self.interval_hours,
            )
        # Churn linear term: -2 gamma A_0 on the first block.
        gamma = self.cost_model.churn_penalty
        if gamma > 0:
            q[:N] += -2.0 * gamma * current_fractions

        if self._bounds is None:  # pragma: no cover - set by _ensure_solver
            raise RuntimeError("bounds not built; call _ensure_solver first")
        lower, upper = self._bounds
        metrics = get_metrics()
        metrics.counter("mpo.solves").inc()
        with tracer.span(
            "mpo.solve", backend=self.resolved_backend, variables=N * H
        ) as solve_span:
            if self._last_plan is not None:
                metrics.counter("mpo.warm_start_hits").inc()
            self._solver.warm_start(self._warm_start_vector(current_fractions))
            result = self._solver.solve(q, lower, upper)
            solve_span.tag(
                iterations=result.iterations, status=result.status.value
            )
        metrics.histogram("mpo.iterations").observe(result.iterations)
        if not result.status.ok:
            raise ValueError(
                f"portfolio program is {result.status.value}; check the "
                "allocation constraints (a_total_min vs a_market_max * N)"
            )
        fractions = np.clip(result.x.reshape(H, N), 0.0, None)
        self._last_plan = fractions.copy()

        plan = PortfolioPlan(self.markets, fractions, predicted_rps)
        prov = sum(
            self.cost_model.provisioning_cost(
                fractions[tau],
                per_request_cost[tau],
                predicted_rps[tau],
                self.interval_hours,
            )
            for tau in range(H)
        )
        sla = sum(
            float(
                self.cost_model.sla_coefficients(
                    failure_probs[tau],
                    predicted_rps[tau],
                    float(shortfall[tau]),
                    self.interval_hours,
                )
                @ fractions[tau]
            )
            for tau in range(H)
        )
        risk = sum(
            self.cost_model.risk(fractions[tau], covariance) for tau in range(H)
        )
        return MPOResult(
            plan=plan,
            solver=result,
            provisioning_cost=float(prov),
            sla_cost=float(sla),
            risk=float(risk),
        )
