"""Property-based tests for the solver stack (hypothesis)."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.solvers import QPProblem, SolverStatus, solve_qp
from repro.solvers.active_set import solve_qp_active_set
from repro.solvers.kkt import kkt_residuals
from repro.solvers.qp import _ruiz_equilibrate

from conftest import random_feasible_qp


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(2, 12),
    extra=st.integers(0, 12),
)
def test_solver_satisfies_kkt_on_feasible_qps(seed, n, extra):
    """Any feasible strictly convex QP must solve to KKT tolerance."""
    rng = np.random.default_rng(seed)
    prob = random_feasible_qp(rng, n, n + extra)
    res = solve_qp(prob)
    assert res.status is SolverStatus.OPTIMAL
    assert kkt_residuals(prob, res.x, res.y).max() < 5e-3


def _objective_bound(res, ref, c: float) -> float:
    """How far the objective of an ADMM point that met the stopping rule can
    sit from the exact optimum ``f*`` of a program scaled by ``c``.

    With ``r_p = Ax - z``, ``r_d = Px + q + A'y`` and both duals in the
    normal cone of the box at their points (ADMM's ``y`` is, by its
    projection step), convexity gives

        -|y*|_1 |r_p|_inf <= f(x) - f* <= |r_d|_inf |x - x*|_1 + |y|_1 |r_p|_inf.

    The stopping rule caps both residuals at ``eps_abs + eps_rel * norms``;
    ``r_d``, ``y`` and ``y* = c * ref.y`` all grow with ``c``, so the bound
    does too.  The last term allows for rounding in the two objectives.
    """
    duals = max(np.abs(res.y).sum(), c * np.abs(ref.y).sum())
    return (
        res.dual_residual * np.abs(res.x - ref.x).sum()
        + duals * res.primal_residual
        + 1e-12 * c * (1.0 + abs(ref.objective))
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(1e-3, 1e3))
@example(seed=1908, scale=8.0)
def test_objective_scale_invariance(seed, scale):
    """Scaling the objective by c scales the optimum value by c, not x."""
    rng = np.random.default_rng(seed)
    prob = random_feasible_qp(rng, 5, 8)
    scaled = QPProblem(prob.P * scale, prob.q * scale, prob.A, prob.l, prob.u)
    r1 = solve_qp(prob)
    r2 = solve_qp(scaled)
    assert r1.status is SolverStatus.OPTIMAL and r2.status is SolverStatus.OPTIMAL
    # Tolerances are absolute in the solver, so extreme objective scales
    # loosen the recovered x slightly.
    np.testing.assert_allclose(r2.x, r1.x, atol=5e-3)
    # Each objective against the exact optimum: f* for prob, scale * f* for
    # the scaled program (same x*, duals times scale).
    ref = solve_qp_active_set(prob.P, prob.q, prob.A, prob.l, prob.u)
    assert ref.status is SolverStatus.OPTIMAL
    for c, res in ((1.0, r1), (scale, r2)):
        assert abs(res.objective - c * ref.objective) <= _objective_bound(res, ref, c)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_solution_feasible_within_tolerance(seed):
    rng = np.random.default_rng(seed)
    prob = random_feasible_qp(rng, 6, 10)
    res = solve_qp(prob)
    Ax = prob.A @ res.x
    assert np.all(Ax >= prob.l - 1e-4)
    assert np.all(Ax <= prob.u + 1e-4)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 15), m=st.integers(1, 20))
def test_ruiz_equilibration_bounds_scaled_norms(seed, n, m):
    """After equilibration every row/column norm is close to 1."""
    rng = np.random.default_rng(seed)
    P0 = rng.normal(size=(n, n))
    P = P0 @ P0.T * 10.0 ** rng.uniform(-3, 3)
    A = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3, 3)
    D, E = _ruiz_equilibrate(P, A, iters=50)
    Ps = P * D[:, None] * D[None, :]
    As = A * E[:, None] * D[None, :]
    col = np.maximum(
        np.max(np.abs(Ps), axis=0, initial=0.0),
        np.max(np.abs(As), axis=0, initial=0.0),
    )
    row = np.max(np.abs(As), axis=1, initial=0.0)
    # Norms that started nonzero must land near 1.
    assert np.all(col[col > 0] < 3.0)
    assert np.all(col[col > 0] > 0.2)
    assert np.all(row[row > 0] < 3.0)
    assert np.all(row[row > 0] > 0.2)
