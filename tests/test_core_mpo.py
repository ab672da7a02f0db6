"""Unit tests for the multi-period optimizer — the heart of SpotWeb."""

import numpy as np
import pytest

from repro.core import AllocationConstraints, CostModel, MPOOptimizer, SPOOptimizer
from repro.solvers import QPProblem

from oracles.reference import solve_qp_reference


def flat_inputs(dataset, horizon, target=1000.0, t=0):
    H = horizon
    return (
        np.full(H, target),
        np.tile(dataset.prices[t], (H, 1)),
        np.tile(dataset.failure_probs[t], (H, 1)),
        dataset.event_covariance(),
    )


class TestFeasibility:
    @pytest.mark.parametrize("horizon", [1, 3, 6])
    def test_plan_satisfies_constraints(self, small_markets, small_dataset, horizon):
        constraints = AllocationConstraints(a_total_min=1.0, a_total_max=1.6)
        opt = MPOOptimizer(small_markets, horizon=horizon, constraints=constraints)
        res = opt.optimize(*flat_inputs(small_dataset, horizon))
        assert res.solver.status.ok
        for tau in range(horizon):
            assert constraints.feasible(res.plan.fractions[tau], tol=1e-3)

    def test_market_cap_respected(self, small_markets, small_dataset):
        constraints = AllocationConstraints(a_market_max=0.3, a_total_max=2.0)
        opt = MPOOptimizer(small_markets, horizon=2, constraints=constraints)
        res = opt.optimize(*flat_inputs(small_dataset, 2))
        assert np.all(res.plan.fractions <= 0.3 + 1e-4)


class TestEconomicBehaviour:
    def test_prefers_cheaper_markets(self, small_markets, small_dataset):
        """With no risk/failure differences, allocation goes to low C."""
        opt = MPOOptimizer(
            small_markets,
            horizon=1,
            cost_model=CostModel(risk_aversion=0.0),
        )
        N = len(small_markets)
        prices = np.full((1, N), 1.0)
        prices[0, 2] = 0.01  # market 2 nearly free
        failures = np.zeros((1, N))
        M = 1e-9 * np.eye(N)
        res = opt.optimize(np.array([1000.0]), prices, failures, M)
        frac = res.plan.fractions[0]
        # Per-request cost also depends on capacity; normalize manually.
        C = prices[0] / opt.capacities
        assert frac[np.argmin(C)] == pytest.approx(frac.max())

    def test_risk_aversion_diversifies(self, small_markets):
        N = len(small_markets)
        prices = np.full((1, N), 0.5)
        failures = np.full((1, N), 0.1)
        M = 0.09 * np.eye(N)
        target = np.array([1000.0])

        concentrated = MPOOptimizer(
            small_markets, horizon=1, cost_model=CostModel(risk_aversion=0.0)
        ).optimize(target, prices, failures, M)
        diversified = MPOOptimizer(
            small_markets, horizon=1, cost_model=CostModel(risk_aversion=50.0)
        ).optimize(target, prices, failures, M)

        def herfindahl(frac):
            w = frac / frac.sum()
            return float((w**2).sum())

        assert herfindahl(diversified.plan.fractions[0]) < herfindahl(
            concentrated.plan.fractions[0]
        )

    def test_churn_penalty_sticks_to_current(self, small_markets, small_dataset):
        """With churn cost, the plan stays near the deployed allocation."""
        N = len(small_markets)
        current = np.zeros(N)
        current[0] = 1.0
        prices = np.full((1, N), 0.5)
        failures = np.zeros((1, N))
        M = 1e-9 * np.eye(N)
        target = np.array([1000.0])

        free = MPOOptimizer(
            small_markets, horizon=1, cost_model=CostModel(risk_aversion=0.0)
        ).optimize(target, prices, failures, M, current_fractions=current)
        sticky = MPOOptimizer(
            small_markets,
            horizon=1,
            cost_model=CostModel(risk_aversion=0.0, churn_penalty=50.0),
        ).optimize(target, prices, failures, M, current_fractions=current)

        dist_free = np.abs(free.plan.fractions[0] - current).sum()
        dist_sticky = np.abs(sticky.plan.fractions[0] - current).sum()
        assert dist_sticky < dist_free + 1e-9
        assert sticky.plan.fractions[0][0] > 0.5

    def test_failure_cost_avoids_flaky_markets(self, small_markets):
        """With L > 0, high-failure markets carry an SLA surcharge."""
        N = len(small_markets)
        prices = np.full((1, N), 0.5)
        failures = np.zeros((1, N))
        failures[0, 0] = 0.9
        M = 1e-9 * np.eye(N)
        opt = MPOOptimizer(
            small_markets,
            horizon=1,
            cost_model=CostModel(
                penalty=0.02, long_running_fraction=1.0, risk_aversion=0.0
            ),
        )
        res = opt.optimize(np.array([1000.0]), prices, failures, M)
        frac = res.plan.fractions[0]
        assert frac[0] < frac[1:].max()


class TestMultiPeriodStructure:
    def test_example1_future_knowledge(self, catalog):
        """The paper's Example 1: a predicted demand jump shifts the early
        allocation towards the large server when churn is expensive."""
        small = catalog.market("m4.large")  # 40 rps
        large = catalog.market("m4.10xlarge")  # 800 rps
        markets = [small, large]
        # Price the large server at a per-request discount (as in Example 1:
        # 15c/100req beats 3 x 2c/10req at high demand).
        prices = np.array([[0.08, 1.2], [0.08, 1.2]])
        failures = np.zeros((2, 2))
        M = 1e-9 * np.eye(2)
        cost_model = CostModel(risk_aversion=0.0, churn_penalty=5.0)

        myopic = MPOOptimizer(markets, horizon=1, cost_model=cost_model)
        res_myopic = myopic.optimize(
            np.array([25.0]), prices[:1], failures[:1], M
        )

        lookahead = MPOOptimizer(markets, horizon=2, cost_model=cost_model)
        res_look = lookahead.optimize(
            np.array([25.0, 800.0]), prices, failures, M
        )
        # The look-ahead plan leans on the large server already in interval 1
        # more than the myopic plan does.
        assert (
            res_look.plan.fractions[0, 1]
            > res_myopic.plan.fractions[0, 1] - 1e-9
        )
        assert res_look.plan.fractions[1, 1] > 0.5

    def test_matches_reference_solver(self, small_markets, small_dataset):
        """The assembled QP must solve to the same optimum as the reference."""
        H = 2
        opt = MPOOptimizer(
            small_markets,
            horizon=H,
            cost_model=CostModel(churn_penalty=0.5),
        )
        targets, prices, failures, M = flat_inputs(small_dataset, H)
        res = opt.optimize(targets, prices, failures, M)

        # Rebuild the same QP and solve with scipy trust-constr.
        N = len(small_markets)
        rows, lower, upper = opt.constraints.build_rows(N, H)
        q = np.zeros(N * H)
        per_req = prices / opt.capacities[None, :]
        for tau in range(H):
            q[tau * N : (tau + 1) * N] = opt.cost_model.provisioning_coefficients(
                per_req[tau], targets[tau], 1.0
            ) + opt.cost_model.sla_coefficients(failures[tau], targets[tau], 0.0)
        problem = QPProblem(opt._hessian(M), q, rows, lower, upper)
        ref = solve_qp_reference(problem)
        assert res.solver.objective == pytest.approx(ref.objective, rel=1e-3, abs=1e-4)


class TestValidationAndCaching:
    def test_input_validation(self, small_markets, small_dataset):
        opt = MPOOptimizer(small_markets, horizon=2)
        targets, prices, failures, M = flat_inputs(small_dataset, 2)
        with pytest.raises(ValueError):
            opt.optimize(targets[:1], prices, failures, M)
        with pytest.raises(ValueError):
            opt.optimize(targets, prices[:1], failures, M)
        with pytest.raises(ValueError):
            opt.optimize(targets, prices, failures, M[:3, :3])
        with pytest.raises(ValueError):
            opt.optimize(-targets, prices, failures, M)
        with pytest.raises(ValueError):
            opt.optimize(targets, prices, failures, M, current_fractions=np.ones(3))

    def test_constructor_validation(self, small_markets):
        with pytest.raises(ValueError):
            MPOOptimizer(small_markets, horizon=0)
        with pytest.raises(ValueError):
            MPOOptimizer([], horizon=1)
        with pytest.raises(ValueError):
            MPOOptimizer(small_markets, interval_hours=0.0)

    def test_infeasible_box_rejected_at_construction(self, small_markets):
        box = AllocationConstraints(a_market_max=0.1)  # 6 * 0.1 < a_total_min
        with pytest.raises(ValueError, match="infeasible constraints"):
            MPOOptimizer(small_markets, constraints=box)
        with pytest.raises(ValueError, match="infeasible constraints"):
            SPOOptimizer(small_markets, constraints=box)

    def test_solver_cached_across_calls(self, small_markets, small_dataset):
        opt = MPOOptimizer(small_markets, horizon=2)
        targets, prices, failures, M = flat_inputs(small_dataset, 2)
        opt.optimize(targets, prices, failures, M)
        solver1 = opt._solver
        opt.optimize(targets * 1.1, prices * 0.9, failures, M)
        assert opt._solver is solver1  # same M -> reuse
        M2 = M + 1e-3 * np.eye(M.shape[0])
        opt.optimize(targets, prices, failures, M2)
        assert opt._solver is not solver1  # new M -> rebuild
