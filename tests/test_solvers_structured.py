"""Tests for the structure-exploiting MPO solve path.

The contract: the block-tridiagonal/banded path is an exact drop-in for the
dense path — same optima (to solver tolerance), same iteration behaviour —
just cheaper linear algebra.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_solve_banded

from repro.core import CostModel, MPOOptimizer
from repro.core.mpo import STRUCTURED_MIN_VARS
from repro.solvers import (
    ADMMSolver,
    BlockTridiagFactor,
    MPOStructure,
    QPProblem,
    SolverStatus,
    StructuredADMMSolver,
)
from repro.solvers.reference import solve_qp_reference

from conftest import ReferenceADMMLoop, mpo_program, run_pair

TIGHT = dict(eps_abs=1e-10, eps_rel=1e-10)


def random_structure(rng, N, H, churn):
    M = rng.normal(size=(N, N))
    M = M @ M.T / N + 0.1 * np.eye(N)
    return MPOStructure(N, H, risk=2.0 * 5.0 * M, churn=2.0 * churn)


def mpo_bounds(N, H):
    """Always-feasible MPO-shaped bounds: box rows then sum rows."""
    lower = np.concatenate([np.zeros(N * H), np.full(H, 1.0)])
    upper = np.concatenate([np.full(N * H, 1.5), np.full(H, 1.4)])
    return lower, upper


class TestBlockTridiagFactor:
    @pytest.mark.parametrize("N,H", [(1, 1), (1, 5), (3, 1), (4, 3), (8, 6)])
    def test_matches_dense_solve(self, N, H):
        rng = np.random.default_rng(N * 100 + H)
        blocks = np.empty((H, N, N))
        for tau in range(H):
            Q = rng.normal(size=(N, N))
            blocks[tau] = Q @ Q.T + N * np.eye(N)
        off = 0.3 * rng.normal(size=(max(H - 1, 0), N))
        K = np.zeros((N * H, N * H))
        for tau in range(H):
            blk = slice(tau * N, (tau + 1) * N)
            K[blk, blk] = blocks[tau]
            if tau > 0:
                prev = slice((tau - 1) * N, tau * N)
                K[blk, prev] = np.diag(off[tau - 1])
                K[prev, blk] = np.diag(off[tau - 1])
        rhs = rng.normal(size=N * H)
        x = BlockTridiagFactor(blocks, off).solve(rhs)
        np.testing.assert_allclose(K @ x, rhs, atol=1e-8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BlockTridiagFactor(np.eye(3), np.zeros((0, 3)))
        with pytest.raises(ValueError):
            BlockTridiagFactor(np.ones((2, 3, 4)), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            BlockTridiagFactor(
                np.tile(np.eye(3), (2, 1, 1)), np.zeros((1, 2))
            )


class TestMPOStructure:
    def test_validation(self):
        with pytest.raises(ValueError):
            MPOStructure(0, 2, risk=np.eye(1), churn=0.0)
        with pytest.raises(ValueError):
            MPOStructure(2, 2, risk=np.eye(3), churn=0.0)
        with pytest.raises(ValueError):
            MPOStructure(2, 2, risk=np.array([[1.0, 2.0], [0.0, 1.0]]), churn=0.0)
        with pytest.raises(ValueError):
            MPOStructure(2, 2, risk=np.eye(2), churn=-1.0)

    def test_dense_equivalents_shape_and_symmetry(self):
        rng = np.random.default_rng(0)
        s = random_structure(rng, 4, 3, churn=0.5)
        P = s.dense_hessian()
        assert P.shape == (12, 12)
        np.testing.assert_allclose(P, P.T)
        A = s.dense_constraints()
        assert A.shape == (12 + 3, 12)
        # One box row per variable plus one sum row per period.
        np.testing.assert_allclose(A[:12], np.eye(12))
        assert A[12:].sum() == 12


class TestStructuredMatchesDenseAndReference:
    """The ISSUE's property: objective within 1e-6, allocation within 1e-5."""

    @settings(max_examples=20, deadline=None)
    @given(
        N=st.integers(min_value=1, max_value=8),
        H=st.integers(min_value=1, max_value=6),
        churn=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_three_way_agreement(self, N, H, churn, seed):
        rng = np.random.default_rng(seed)
        structure = random_structure(rng, N, H, churn)
        q = rng.normal(size=N * H)
        lower, upper = mpo_bounds(N, H)

        res_s = StructuredADMMSolver(structure, **TIGHT).solve(q, lower, upper)
        res_d = ADMMSolver(
            structure.dense_hessian(), structure.dense_constraints(), **TIGHT
        ).solve(q, lower, upper)
        ref = solve_qp_reference(
            QPProblem(
                structure.dense_hessian(),
                q,
                structure.dense_constraints(),
                lower,
                upper,
            )
        )
        assert res_s.status.ok and res_d.status.ok
        assert abs(res_s.objective - res_d.objective) < 1e-6
        np.testing.assert_allclose(res_s.x, res_d.x, atol=1e-5)
        # trust-constr's interior point is only ~1e-4 accurate when bounds
        # are strongly active, so the cross-check is asymmetric: the ADMM
        # optimum must be at least as good (it solves the same convex
        # program) and must sit within the reference's own accuracy.
        scale = max(1.0, abs(ref.objective))
        assert res_s.objective <= ref.objective + 1e-6 * scale
        assert res_s.objective >= ref.objective - 1e-3 * scale
        np.testing.assert_allclose(res_s.x, ref.x, atol=1e-3)

    def test_agreement_without_scaling(self):
        """The unscaled paths must also coincide (isolates Ruiz parity)."""
        rng = np.random.default_rng(5)
        structure = random_structure(rng, 5, 4, churn=0.4)
        q = rng.normal(size=20)
        lower, upper = mpo_bounds(5, 4)
        res_s = StructuredADMMSolver(structure, scale=False, **TIGHT).solve(
            q, lower, upper
        )
        res_d = ADMMSolver(
            structure.dense_hessian(),
            structure.dense_constraints(),
            scale=False,
            **TIGHT,
        ).solve(q, lower, upper)
        assert abs(res_s.objective - res_d.objective) < 1e-8
        np.testing.assert_allclose(res_s.x, res_d.x, atol=1e-7)

    def test_rho_retune_path_still_exact(self):
        """A badly scaled objective forces adaptive-rho refactorization."""
        rng = np.random.default_rng(11)
        structure = random_structure(rng, 6, 4, churn=0.2)
        q = 1e4 * rng.normal(size=24)
        lower, upper = mpo_bounds(6, 4)
        solver = StructuredADMMSolver(structure, scale=False, **TIGHT)
        res = solver.solve(q, lower, upper)
        assert solver._rho != pytest.approx(0.1)  # retune actually fired
        ref = solve_qp_reference(
            QPProblem(
                structure.dense_hessian(),
                q,
                structure.dense_constraints(),
                lower,
                upper,
            )
        )
        assert abs(res.objective - ref.objective) < 1e-4 * abs(ref.objective)
        np.testing.assert_allclose(res.x, ref.x, atol=1e-5)


class TestOptimizerBackends:
    def inputs(self, dataset, H, target=1000.0):
        return (
            np.full(H, target),
            np.tile(dataset.prices[0], (H, 1)),
            np.tile(dataset.failure_probs[0], (H, 1)),
            dataset.event_covariance(),
        )

    def test_structured_matches_admm_backend(self, small_markets, small_dataset):
        H = 3
        kwargs = dict(horizon=H, cost_model=CostModel(churn_penalty=0.4))
        args = self.inputs(small_dataset, H)
        res_s = MPOOptimizer(
            small_markets, backend="structured", **kwargs
        ).optimize(*args)
        res_d = MPOOptimizer(small_markets, backend="admm", **kwargs).optimize(
            *args
        )
        assert res_s.solver.objective == pytest.approx(
            res_d.solver.objective, rel=1e-5, abs=1e-7
        )
        np.testing.assert_allclose(
            res_s.plan.fractions, res_d.plan.fractions, atol=1e-4
        )

    def test_auto_backend_resolution(self, small_markets, catalog):
        small = MPOOptimizer(small_markets, horizon=2)  # 12 vars
        assert small.resolved_backend == "admm"
        H = -(-STRUCTURED_MIN_VARS // len(small_markets))
        big = MPOOptimizer(small_markets, horizon=H)
        assert big.resolved_backend == "structured"
        forced = MPOOptimizer(small_markets, horizon=2, backend="structured")
        assert forced.resolved_backend == "structured"

    def test_warm_start_matches_cold(self, small_markets, small_dataset):
        H = 3
        kwargs = dict(
            horizon=H,
            cost_model=CostModel(churn_penalty=0.3),
            backend="structured",
        )
        warm_opt = MPOOptimizer(small_markets, **kwargs)
        warm_opt.optimize(*self.inputs(small_dataset, H, target=900.0))
        warm = warm_opt.optimize(*self.inputs(small_dataset, H, target=1200.0))

        cold = MPOOptimizer(small_markets, **kwargs).optimize(
            *self.inputs(small_dataset, H, target=1200.0)
        )
        assert warm.solver.objective == pytest.approx(
            cold.solver.objective, rel=1e-5, abs=1e-7
        )
        np.testing.assert_allclose(
            warm.plan.fractions, cold.plan.fractions, atol=1e-4
        )

    def test_horizon_shift_warm_start_vector(self, small_markets, small_dataset):
        H = 3
        opt = MPOOptimizer(small_markets, horizon=H, backend="structured")
        res = opt.optimize(*self.inputs(small_dataset, H))
        plan = res.plan.fractions
        seed_vec = opt._warm_start_vector(np.zeros(len(small_markets)))
        expected = np.concatenate([plan[1:].ravel(), plan[-1]])
        np.testing.assert_allclose(seed_vec, expected)


class _ReferenceStructuredSolver(ReferenceADMMLoop, StructuredADMMSolver):
    """The structured backend on the reference loop, with the KKT solve
    through ``cho_solve_banded``."""

    def _solve_kkt(self, rhs):
        return cho_solve_banded(
            (self._factor._cb, True),
            np.asarray(rhs, dtype=np.float64),
            check_finite=False,
        )


class TestMatchesReferenceLoop:
    """The optimized loop and the direct ``pbtrs`` solve reproduce the
    reference loop exactly on the structured backend."""

    def pair(self, structure, **kwargs):
        return (
            StructuredADMMSolver(structure, **kwargs),
            _ReferenceStructuredSolver(structure, **kwargs),
        )

    def test_warm_sequence_with_rho_retune_and_infinite_bounds(self):
        rng = np.random.default_rng(2024)
        N, H = 6, 4
        structure = random_structure(rng, N, H, churn=0.2)
        lower, upper = mpo_bounds(N, H)
        upper[: 2 * N] = np.inf  # uncapped markets in the first two periods
        upper[-1] = np.inf
        calls = []
        for k in range(6):
            q = rng.normal(size=N * H)
            calls.append((1e4 * q if k == 3 else q, lower, upper))
        fast, ref = self.pair(structure, scale=False)
        results = run_pair(fast, ref, calls)
        assert all(r.status is SolverStatus.OPTIMAL for r in results)
        assert fast.rho != pytest.approx(0.1)  # a retune fired
        assert fast.rho == ref.rho

    def test_costsim_fig6b_program_warm_sequence_with_rho_retune(self):
        """At the size of costsim_fig6b's program: 36 markets x H=10,
        Ruiz-scaled."""
        structure, calls = mpo_program(36, 10, seed=36)
        fast, ref = self.pair(structure)
        results = run_pair(fast, ref, calls)
        assert all(r.status is SolverStatus.OPTIMAL for r in results)
        assert fast.rho != pytest.approx(0.1)  # a retune fired
        assert fast.rho == ref.rho

    def test_stop_at_max_iter(self):
        rng = np.random.default_rng(7)
        structure = random_structure(rng, 5, 3, churn=0.5)
        lower, upper = mpo_bounds(5, 3)
        calls = [(rng.normal(size=15), lower, upper) for _ in range(2)]
        results = run_pair(*self.pair(structure, max_iter=20), calls)
        assert [r.status for r in results] == [SolverStatus.MAX_ITERATIONS] * 2
        assert [r.iterations for r in results] == [20, 20]

    def test_infeasible_problems(self):
        rng = np.random.default_rng(3)
        N, H = 3, 2
        structure = random_structure(rng, N, H, churn=0.3)
        # Markets capped at 0.1 each cannot carry a period total of 1.
        lower, upper = mpo_bounds(N, H)
        upper[: N * H] = 0.1
        (res,) = run_pair(*self.pair(structure), [(np.zeros(N * H), lower, upper)])
        assert res.status is SolverStatus.PRIMAL_INFEASIBLE

        # No risk, no churn, no caps and a negative price: unbounded.
        flat = MPOStructure(N, H, risk=np.zeros((N, N)), churn=0.0)
        lower = np.zeros(N * H + H)
        upper = np.full(N * H + H, np.inf)
        (res,) = run_pair(*self.pair(flat), [(-np.ones(N * H), lower, upper)])
        assert res.status is SolverStatus.DUAL_INFEASIBLE
