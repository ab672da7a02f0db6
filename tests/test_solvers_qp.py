"""Unit tests for the ADMM QP solver."""

from collections import Counter

import numpy as np
import pytest
from scipy.linalg import cho_solve, cho_solve_banded

from repro.baselines import ExoSphereLoopPolicy
from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.predictors import (
    AR1PricePredictor,
    ReactiveFailurePredictor,
    SplinePredictor,
)
from repro.simulator import CostSimulator
from repro.solvers import (
    ADMMCore,
    ADMMSolver,
    QPProblem,
    SolverStatus,
    StructuredADMMSolver,
    solve_qp,
)

from conftest import (
    ReferenceADMMLoop,
    assert_same_result,
    mpo_program,
    random_feasible_qp,
    run_pair,
)
from oracles.kkt import kkt_residuals


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

    def test_costsim_vod_program_warm_sequence_with_rho_retune(self):
        """The dense backend at the size of costsim_vod's program: 12
        markets x H=4, Ruiz-scaled, box rows then sum rows."""
        structure, calls = mpo_program(12, 4, seed=12)
        P, A = structure.dense_hessian(), structure.dense_constraints()
        fast, ref = ADMMSolver(P, A), _ReferenceADMMSolver(P, A)
        results = run_pair(fast, ref, calls)
        assert all(r.status is SolverStatus.OPTIMAL for r in results)
        assert fast.rho != pytest.approx(0.1)  # a retune fired
        assert fast.rho == ref.rho


@pytest.fixture(params=["dense", "structured"])
def backend(request):
    """``(make, calls, reference_kkt)`` for one backend: a solver factory on
    a small MPO-shaped program, its solve sequence, and SciPy's wrapped
    solve with the solver's factor, which the in-place solve must match."""
    structure, calls = mpo_program(4, 3, seed=5)
    if request.param == "dense":
        P, A = structure.dense_hessian(), structure.dense_constraints()
        return (
            lambda: ADMMSolver(P, A),
            calls,
            lambda s, rhs: cho_solve((s._chol, True), rhs, check_finite=False),
        )
    return (
        lambda: StructuredADMMSolver(structure),
        calls,
        lambda s, rhs: cho_solve_banded(
            (s._factor._cb, True), rhs, check_finite=False
        ),
    )


class TestSolverState:
    """The iteration runs in buffers the solver owns: what goes in or comes
    out never aliases them, and a refused or reset solve leaves no trace."""

    def test_results_and_warm_start_arrays_do_not_alias_the_state(self, backend):
        make, calls, _ = backend
        solver, twin = make(), make()
        first = solver.solve(*calls[0])
        assert_same_result(first, twin.solve(*calls[0]))
        seed_x, seed_y = np.array(first.x), np.array(first.y)
        solver.warm_start(seed_x, seed_y)
        twin.warm_start(first.x.copy(), first.y.copy())
        # Scribble over everything the caller holds.
        for arr in (seed_x, seed_y, first.x, first.y):
            arr.setflags(write=True)
            arr[:] = np.nan
        assert_same_result(solver.solve(*calls[1]), twin.solve(*calls[1]))

    def test_reset_then_solve_equals_a_fresh_solver(self, backend):
        make, calls, _ = backend
        solver = make()
        for q, l, u in calls[:4]:
            solver.warm_start(solver.solve(q, l, u).x)
        assert solver.rho != make().rho  # the 1e4 prices retuned rho
        solver.reset()
        assert_same_result(solver.solve(*calls[4]), make().solve(*calls[4]))

    @pytest.mark.parametrize(
        "bad", [[np.nan, 0, 0], [np.inf, 0, 0], [0, -np.inf, 0]]
    )
    def test_refuses_a_non_finite_cost(self, backend, bad):
        make, calls, _ = backend
        q, l, u = calls[0]
        q_bad = q.copy()
        q_bad[:3] = bad
        with pytest.raises(ValueError, match="q must be finite"):
            make().solve(q_bad, l, u)

    @pytest.mark.parametrize("side", ["l", "u"])
    def test_refuses_a_nan_bound(self, backend, side):
        make, calls, _ = backend
        q, l, u = calls[0]
        l, u = l.copy(), u.copy()
        (l if side == "l" else u)[1] = np.nan
        with pytest.raises(ValueError, match="must not be NaN"):
            make().solve(q, l, u)

    def test_a_refused_solve_leaves_the_state_alone(self, backend):
        make, calls, _ = backend
        solver, twin = make(), make()
        for q, l, u in calls[:2]:
            assert_same_result(solver.solve(q, l, u), twin.solve(q, l, u))
        q, l, u = calls[2]
        with pytest.raises(ValueError):
            solver.solve(np.full_like(q, np.nan), l, u)
        l_nan = l.copy()
        l_nan[0] = np.nan
        with pytest.raises(ValueError):
            solver.solve(q, l_nan, u)
        assert_same_result(solver.solve(q, l, u), twin.solve(q, l, u))
        # And a fresh solver's first solve after a refusal is a fresh solve.
        refused = make()
        with pytest.raises(ValueError):
            refused.solve(np.full_like(q, np.nan), l, u)
        assert_same_result(refused.solve(q, l, u), make().solve(q, l, u))

    def test_in_place_kkt_solve_matches_scipy_and_refuses_a_copy(self, backend):
        make, _, reference_kkt = backend
        solver = make()
        rhs = np.random.default_rng(3).normal(size=solver.n)
        buf = rhs.copy()
        assert solver._solve_kkt_in_place(buf) is buf
        assert buf.tobytes() == reference_kkt(solver, rhs).tobytes()
        # LAPACK solves a copy of a strided buffer and returns the copy.
        strided = np.zeros(2 * solver.n)[::2]
        strided[:] = rhs
        with pytest.raises(ValueError, match="solved a copy"):
            solver._solve_kkt_in_place(strided)


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
