"""Unit and property tests for the active-set QP solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.solvers import SolverStatus, solve_qp

from conftest import random_feasible_qp
from oracles.active_set import solve_qp_active_set
from oracles.kkt import kkt_residuals


class TestExactCases:
    def test_interior_optimum(self):
        res = solve_qp_active_set(
            2 * np.eye(2), [-6.0, 2.0], np.eye(2), [-10, -10], [10, 10]
        )
        assert res.status is SolverStatus.OPTIMAL
        np.testing.assert_allclose(res.x, [3.0, -1.0], atol=1e-8)

    def test_active_upper_bound(self):
        res = solve_qp_active_set(
            2 * np.eye(2), [-6.0, 2.0], np.eye(2), [-10, -10], [1, 10]
        )
        assert res.status is SolverStatus.OPTIMAL
        np.testing.assert_allclose(res.x, [1.0, -1.0], atol=1e-8)
        assert res.y[0] > 0  # multiplier pushing against the upper bound

    def test_equality_row(self):
        res = solve_qp_active_set(
            2 * np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]), [1.0], [1.0]
        )
        assert res.status is SolverStatus.OPTIMAL
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-8)

    def test_working_set_release(self):
        """Start pinned at a suboptimal corner: the solver must release it."""
        # min (x-0.5)^2 on 0 <= x <= 1, starting at x=1 (active upper).
        res = solve_qp_active_set(
            2 * np.eye(1), [-1.0], np.eye(1), [0.0], [1.0], x0=np.array([1.0])
        )
        assert res.status is SolverStatus.OPTIMAL
        np.testing.assert_allclose(res.x, [0.5], atol=1e-8)

    def test_primal_infeasible(self):
        res = solve_qp_active_set(
            np.eye(1), [0.0], np.array([[1.0], [1.0]]),
            [-np.inf, 1.0], [-1.0, np.inf],
        )
        assert res.status is SolverStatus.PRIMAL_INFEASIBLE

    def test_psd_input_regularized(self):
        # P singular (rank 1): the internal ridge keeps KKT solvable.
        P = np.array([[1.0, 1.0], [1.0, 1.0]])
        res = solve_qp_active_set(
            P, [1.0, 1.0], np.eye(2), [0.0, 0.0], [1.0, 1.0]
        )
        assert res.status is SolverStatus.OPTIMAL
        np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_qp_active_set(np.eye(2), np.zeros(3), np.eye(2), [0, 0], [1, 1])
        with pytest.raises(ValueError):
            solve_qp_active_set(np.eye(1), [0.0], np.eye(1), [2.0], [1.0])
        with pytest.raises(ValueError):
            solve_qp_active_set(
                np.eye(1), [0.0], np.eye(1), [0.0], [1.0], x0=np.array([5.0])
            )


class TestThreeWayAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_admm(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 15))
        m = int(rng.integers(n, 3 * n))
        prob = random_feasible_qp(rng, n, m)
        admm = solve_qp(prob)
        aset = solve_qp_active_set(prob.P, prob.q, prob.A, prob.l, prob.u)
        assert aset.status is SolverStatus.OPTIMAL
        assert aset.objective == pytest.approx(
            admm.objective, rel=1e-4, abs=1e-6
        )
        kk = kkt_residuals(prob, aset.x, aset.y)
        assert kk.max() < 1e-4


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 10))
def test_active_set_kkt_property(seed, n):
    rng = np.random.default_rng(seed)
    prob = random_feasible_qp(rng, n, n + int(rng.integers(0, 10)))
    res = solve_qp_active_set(prob.P, prob.q, prob.A, prob.l, prob.u)
    assert res.status is SolverStatus.OPTIMAL
    assert kkt_residuals(prob, res.x, res.y).max() < 1e-4
