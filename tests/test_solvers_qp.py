"""Unit tests for the ADMM QP solver."""

from collections import Counter

import numpy as np
import pytest
from scipy.linalg import cho_solve

from repro.baselines import ExoSphereLoopPolicy
from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.predictors import (
    AR1PricePredictor,
    ReactiveFailurePredictor,
    SplinePredictor,
)
from repro.simulator import CostSimulator
from repro.solvers import ADMMCore, ADMMSolver, QPProblem, SolverStatus, solve_qp
from repro.solvers.kkt import kkt_residuals

from conftest import ReferenceADMMLoop, random_feasible_qp, run_pair


class TestQPProblem:
    def test_validates_dimensions(self):
        with pytest.raises(ValueError, match="P must be"):
            QPProblem(np.eye(3), np.zeros(2), np.eye(2), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="columns"):
            QPProblem(np.eye(2), np.zeros(2), np.ones((1, 3)), [0.0], [1.0])
        with pytest.raises(ValueError, match="one entry per row"):
            QPProblem(np.eye(2), np.zeros(2), np.eye(2), np.zeros(3), np.ones(3))

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError, match="infeasible box"):
            QPProblem(np.eye(1), [0.0], [[1.0]], [2.0], [1.0])

    def test_rejects_asymmetric_P(self):
        P = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            QPProblem(P, np.zeros(2), np.eye(2), np.zeros(2), np.ones(2))

    def test_objective_value(self):
        prob = QPProblem(2 * np.eye(2), [1.0, -1.0], np.eye(2), [-1, -1], [1, 1])
        assert prob.objective([1.0, 1.0]) == pytest.approx(2.0)


class TestUnconstrainedOptimum:
    def test_interior_solution_matches_closed_form(self):
        # min (x-3)^2 + (y+1)^2 with a box wide enough to be inactive.
        P = 2 * np.eye(2)
        q = np.array([-6.0, 2.0])
        prob = QPProblem(P, q, np.eye(2), [-10, -10], [10, 10])
        res = solve_qp(prob)
        assert res.status is SolverStatus.OPTIMAL
        np.testing.assert_allclose(res.x, [3.0, -1.0], atol=1e-5)

    def test_active_bound(self):
        # Same objective but x <= 1 binds.
        prob = QPProblem(2 * np.eye(2), [-6.0, 2.0], np.eye(2), [-10, -10], [1, 10])
        res = solve_qp(prob)
        assert res.status is SolverStatus.OPTIMAL
        np.testing.assert_allclose(res.x, [1.0, -1.0], atol=1e-5)
        # Dual of the active row must be positive (pushing against upper).
        assert res.y[0] > 1e-8

    def test_equality_row(self):
        # x + y == 1, min x^2 + y^2 -> (0.5, 0.5).
        prob = QPProblem(
            2 * np.eye(2), np.zeros(2), [[1.0, 1.0]], [1.0], [1.0]
        )
        res = solve_qp(prob)
        assert res.status is SolverStatus.OPTIMAL
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-5)


class TestKKTOnRandomProblems:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_feasible_qps_satisfy_kkt(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 20))
        m = int(rng.integers(n, 3 * n))
        prob = random_feasible_qp(rng, n, m)
        res = solve_qp(prob)
        assert res.status is SolverStatus.OPTIMAL
        kk = kkt_residuals(prob, res.x, res.y)
        assert kk.max() < 1e-3


class TestInfeasibility:
    def test_primal_infeasible_detected(self):
        prob = QPProblem(
            np.eye(1), [0.0], [[1.0], [1.0]], [-np.inf, 1.0], [-1.0, np.inf]
        )
        res = solve_qp(prob)
        assert res.status is SolverStatus.PRIMAL_INFEASIBLE

    def test_unbounded_detected(self):
        prob = QPProblem(np.zeros((1, 1)), [-1.0], [[1.0]], [0.0], [np.inf])
        res = solve_qp(prob)
        assert res.status is SolverStatus.DUAL_INFEASIBLE


class TestSolverReuse:
    def test_warm_start_converges_faster(self):
        rng = np.random.default_rng(5)
        prob = random_feasible_qp(rng, 12, 20)
        solver = ADMMSolver(prob.P, prob.A)
        cold = solver.solve(prob.q, prob.l, prob.u)
        solver2 = ADMMSolver(prob.P, prob.A)
        solver2.warm_start(cold.x, cold.y)
        warm = solver2.solve(prob.q, prob.l, prob.u)
        assert warm.status is SolverStatus.OPTIMAL
        assert warm.iterations <= cold.iterations

    def test_reuse_with_new_linear_terms(self):
        rng = np.random.default_rng(6)
        prob = random_feasible_qp(rng, 8, 12)
        solver = ADMMSolver(prob.P, prob.A)
        first = solver.solve(prob.q, prob.l, prob.u)
        # Perturb q: the solver must track the new optimum.
        q2 = prob.q + 0.1 * rng.normal(size=prob.q.size)
        second = solver.solve(q2, prob.l, prob.u)
        prob2 = QPProblem(prob.P, q2, prob.A, prob.l, prob.u)
        kk = kkt_residuals(prob2, second.x, second.y)
        assert first.status is SolverStatus.OPTIMAL
        assert second.status is SolverStatus.OPTIMAL
        assert kk.max() < 1e-3

    def test_reset_clears_state(self):
        rng = np.random.default_rng(7)
        prob = random_feasible_qp(rng, 6, 9)
        solver = ADMMSolver(prob.P, prob.A)
        solver.solve(prob.q, prob.l, prob.u)
        solver.reset()
        res = solver.solve(prob.q, prob.l, prob.u)
        assert res.status is SolverStatus.OPTIMAL


class TestParameterValidation:
    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError, match="rho"):
            ADMMSolver(np.eye(2), np.eye(2), rho=-1.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            ADMMSolver(np.eye(2), np.eye(2), alpha=2.5)

    def test_rejects_mismatched_solve_inputs(self):
        solver = ADMMSolver(np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="q must have"):
            solver.solve(np.zeros(3), np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="entries"):
            solver.solve(np.zeros(2), np.zeros(3), np.ones(3))

    def test_rejects_crossed_bounds_at_solve(self):
        solver = ADMMSolver(np.eye(1), np.eye(1))
        with pytest.raises(ValueError, match="infeasible box"):
            solver.solve(np.zeros(1), np.array([1.0]), np.array([0.0]))


class TestScaling:
    def test_badly_scaled_problem_converges(self):
        # Coefficients spanning 6 orders of magnitude (price-like data).
        rng = np.random.default_rng(8)
        n, m = 10, 15
        D = np.diag(10.0 ** rng.uniform(-3, 3, size=n))
        L = rng.normal(size=(n, n))
        P = D @ (L @ L.T + 0.1 * np.eye(n)) @ D
        q = D @ rng.normal(size=n)
        A = rng.normal(size=(m, n)) @ D
        x0 = rng.normal(size=n) / np.diag(D)
        prob = QPProblem(P, q, A, A @ x0 - 1.0, A @ x0 + 1.0)
        res = solve_qp(prob)
        assert res.status is SolverStatus.OPTIMAL
        assert kkt_residuals(prob, res.x, res.y).max() < 1e-2


class _ReferenceADMMSolver(ReferenceADMMLoop, ADMMSolver):
    """The dense backend on the reference loop, with ``A.T`` built per call
    and the KKT solve through ``cho_solve``."""

    def _apply_AT(self, w):
        return self.A.T @ w

    def _solve_kkt(self, rhs):
        return cho_solve((self._chol, True), rhs, check_finite=False)


class TestMatchesReferenceLoop:
    """The optimized ADMM loop reproduces the reference loop exactly."""

    def test_warm_sequence_with_rho_retune_and_infinite_bounds(self):
        rng = np.random.default_rng(2024)
        prob = random_feasible_qp(rng, 10, 16)
        l, u = prob.l.copy(), prob.u.copy()
        l[:4] = -np.inf
        u[4:7] = np.inf
        calls = []
        for k in range(6):
            q = prob.q + 0.2 * rng.normal(size=prob.q.size)
            shift = 0.1 * rng.normal(size=l.size)
            calls.append((1e4 * q if k == 3 else q, l + shift, u + shift))
        fast = ADMMSolver(prob.P, prob.A, scale=False)
        ref = _ReferenceADMMSolver(prob.P, prob.A, scale=False)
        results = run_pair(fast, ref, calls)
        assert all(r.status is SolverStatus.OPTIMAL for r in results)
        assert fast.rho != pytest.approx(0.1)  # a retune fired
        assert fast.rho == ref.rho

    def test_stop_at_max_iter(self):
        rng = np.random.default_rng(7)
        prob = random_feasible_qp(rng, 12, 20)
        calls = [(prob.q, prob.l, prob.u), (-prob.q, prob.l, prob.u)]
        fast = ADMMSolver(prob.P, prob.A, max_iter=30)
        ref = _ReferenceADMMSolver(prob.P, prob.A, max_iter=30)
        results = run_pair(fast, ref, calls)
        assert [r.status for r in results] == [SolverStatus.MAX_ITERATIONS] * 2
        assert [r.iterations for r in results] == [30, 30]

    def test_infeasible_problems(self):
        primal = ([0.0], [-np.inf, 1.0], [-1.0, np.inf])
        fast = ADMMSolver(np.eye(1), [[1.0], [1.0]])
        ref = _ReferenceADMMSolver(np.eye(1), [[1.0], [1.0]])
        (res,) = run_pair(fast, ref, [primal])
        assert res.status is SolverStatus.PRIMAL_INFEASIBLE

        dual = ([-1.0], [0.0], [np.inf])
        fast = ADMMSolver(np.zeros((1, 1)), [[1.0]])
        ref = _ReferenceADMMSolver(np.zeros((1, 1)), [[1.0]])
        (res,) = run_pair(fast, ref, [dual])
        assert res.status is SolverStatus.DUAL_INFEASIBLE

    def test_no_constraint_rows(self):
        """An empty A: every residual norm is over an empty vector."""
        P, A = 2.0 * np.eye(3), np.zeros((0, 3))
        calls = [(np.array([1.0, -2.0, 0.5]), np.zeros(0), np.zeros(0))]
        results = run_pair(ADMMSolver(P, A), _ReferenceADMMSolver(P, A), calls)
        assert results[0].status is SolverStatus.OPTIMAL


class TestWorkCounts:
    def test_solves_and_iterations_per_backend(
        self, small_markets, small_dataset, wiki_week, monkeypatch
    ):
        """Exact solver work of a small seeded cost-simulator run: SpotWeb at
        H=4 (24 variables, dense) and H=16 (96, structured), then ExoSphere
        (H=1, dense).  Counts repeat exactly at a fixed seed, so unlike a
        timing no host can move them; a change that alters them on purpose
        updates the pin and says why."""
        counts = Counter()
        solve = ADMMCore.solve

        def counting(self, q, l, u):
            result = solve(self, q, l, u)
            counts[type(self).__name__, "solves"] += 1
            counts[type(self).__name__, "iterations"] += result.iterations
            return result

        monkeypatch.setattr(ADMMCore, "solve", counting)
        trace = wiki_week.window(0, 48)
        sim = CostSimulator(small_dataset, trace, seed=4)
        for horizon in (4, 16):
            controller = SpotWebController(
                small_markets,
                SplinePredictor(trace.intervals_per_day),
                AR1PricePredictor(len(small_markets)),
                ReactiveFailurePredictor(len(small_markets)),
                horizon=horizon,
                cost_model=CostModel(churn_penalty=0.2),
            )
            sim.run(SpotWebPolicy(controller))
        sim.run(ExoSphereLoopPolicy(small_markets))
        assert dict(counts) == {
            ("ADMMSolver", "solves"): 96,
            ("ADMMSolver", "iterations"): 4800,
            ("StructuredADMMSolver", "solves"): 48,
            ("StructuredADMMSolver", "iterations"): 2900,
        }
