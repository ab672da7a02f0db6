"""Unit tests for the LP front-end."""

import numpy as np
import pytest

from repro.solvers import SolverStatus

from oracles.lp import solve_lp


class TestHighsPath:
    def test_simple_lp(self):
        # min -x - y s.t. x + y <= 1, x, y >= 0 -> optimum -1 on the edge.
        c = np.array([-1.0, -1.0])
        A = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        l = np.array([-np.inf, 0.0, 0.0])
        u = np.array([1.0, np.inf, np.inf])
        res = solve_lp(c, A, l, u)
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(-1.0, abs=1e-8)

    def test_equality_rows(self):
        # x + y == 2, minimize x -> x as small as allowed by x >= 0.
        c = np.array([1.0, 0.0])
        A = np.array([[1.0, 1.0], [1.0, 0.0]])
        res = solve_lp(c, A, np.array([2.0, 0.0]), np.array([2.0, np.inf]))
        assert res.status is SolverStatus.OPTIMAL
        np.testing.assert_allclose(res.x, [0.0, 2.0], atol=1e-8)

    def test_infeasible(self):
        A = np.array([[1.0], [1.0]])
        res = solve_lp(np.array([1.0]), A, np.array([2.0, -np.inf]), np.array([np.inf, 1.0]))
        assert res.status is SolverStatus.PRIMAL_INFEASIBLE

    def test_unbounded(self):
        res = solve_lp(
            np.array([-1.0]), np.array([[1.0]]), np.array([0.0]), np.array([np.inf])
        )
        assert res.status in (
            SolverStatus.DUAL_INFEASIBLE,
            SolverStatus.MAX_ITERATIONS,
        )


class TestADMMPath:
    def test_matches_highs(self):
        rng = np.random.default_rng(0)
        n, m = 5, 8
        A = rng.normal(size=(m, n))
        x0 = rng.normal(size=n)
        l = A @ x0 - rng.uniform(0.1, 1.0, size=m)
        u = A @ x0 + rng.uniform(0.1, 1.0, size=m)
        c = rng.normal(size=n)
        r1 = solve_lp(c, A, l, u, method="highs")
        r2 = solve_lp(c, A, l, u, method="admm")
        assert r1.status is SolverStatus.OPTIMAL
        assert r2.status is SolverStatus.OPTIMAL
        assert r2.objective == pytest.approx(r1.objective, abs=1e-3)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown LP method"):
            solve_lp(np.ones(1), np.eye(1), np.zeros(1), np.ones(1), method="simplex")
