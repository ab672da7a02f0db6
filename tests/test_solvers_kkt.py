"""Unit tests for KKT residual computation."""

import numpy as np
import pytest

from repro.solvers import QPProblem

from oracles.kkt import check_kkt, kkt_residuals


@pytest.fixture
def box_problem():
    # min (x - 2)^2 s.t. 0 <= x <= 1: optimum x = 1, y = gradient = -2(2-1)=2.
    return QPProblem(2 * np.eye(1), [-4.0], [[1.0]], [0.0], [1.0])


class TestKKTResiduals:
    def test_true_optimum_passes(self, box_problem):
        # At x=1: P x + q + A'y = 2 - 4 + y = 0 -> y = 2 (active upper bound).
        res = kkt_residuals(box_problem, np.array([1.0]), np.array([2.0]))
        assert res.max() < 1e-9
        assert check_kkt(box_problem, [1.0], [2.0])

    def test_infeasible_point_flagged(self, box_problem):
        res = kkt_residuals(box_problem, np.array([1.5]), np.array([0.0]))
        assert res.primal == pytest.approx(0.5)

    def test_nonstationary_point_flagged(self, box_problem):
        res = kkt_residuals(box_problem, np.array([0.5]), np.array([0.0]))
        assert res.dual == pytest.approx(3.0)  # |2*0.5 - 4|

    def test_complementarity_violation_flagged(self, box_problem):
        # x = 0.5 is interior; any nonzero multiplier violates complementarity.
        res = kkt_residuals(box_problem, np.array([0.5]), np.array([1.0]))
        assert res.complementarity > 0.1

    def test_wrong_sign_multiplier_flagged(self, box_problem):
        # Negative multiplier at the upper bound pairs with the lower gap.
        res = kkt_residuals(box_problem, np.array([1.0]), np.array([-2.0]))
        assert res.max() > 0.1

    def test_infinite_bounds_handled(self):
        prob = QPProblem(2 * np.eye(1), [-4.0], [[1.0]], [-np.inf], [np.inf])
        res = kkt_residuals(prob, np.array([2.0]), np.array([0.0]))
        assert res.max() < 1e-9
