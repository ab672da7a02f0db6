"""Primal active-set QP solver.

A second, algorithmically independent solver for the same problem class as
:class:`repro.solvers.qp.ADMMSolver`::

    minimize    1/2 x' P x + q' x
    subject to  l <= A x <= u

Classic primal active-set method (Nocedal & Wright, ch. 16): from a feasible
point, repeatedly solve the equality-constrained QP on the working set of
active rows, step until a blocking constraint joins the set, and drop active
constraints whose multiplier has the wrong sign.  Exact (up to linear-algebra
precision) on non-degenerate problems, at the cost of one KKT solve per
iteration — ideal for moderate sizes and for cross-validating the ADMM path
(the test suite checks three-way agreement: ADMM vs active-set vs scipy).

Requires ``P`` positive definite; a ridge is added automatically for PSD
inputs.  Feasibility phase 1 reuses the LP front-end.
"""

from __future__ import annotations

import time

import numpy as np

from repro.devtools.contracts import shapes
from repro.solvers.result import SolverResult, SolverStatus

from oracles.lp import solve_lp

__all__ = ["solve_qp_active_set"]

_MULT_TOL = 1e-8
_STEP_TOL = 1e-10
_FEAS_TOL = 1e-9


def _kkt_solve(
    P: np.ndarray, q: np.ndarray, A_w: np.ndarray, b_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the equality-constrained QP ``min 1/2 x'Px + q'x, A_w x = b_w``."""
    n = P.shape[0]
    k = A_w.shape[0]
    if k == 0:
        return np.linalg.solve(P, -q), np.empty(0)
    kkt = np.block([[P, A_w.T], [A_w, np.zeros((k, k))]])
    rhs = np.concatenate([-q, b_w])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:n], sol[n:]


@shapes("(N,N)", "(N,)", "(M,N)", "(M,)", "(M,)", x0="(N,)")
def solve_qp_active_set(
    P: np.ndarray,
    q: np.ndarray,
    A: np.ndarray,
    l: np.ndarray,
    u: np.ndarray,
    *,
    x0: np.ndarray | None = None,
    max_iter: int | None = None,
    ridge: float = 1e-9,
) -> SolverResult:
    """Solve ``min 1/2 x'Px + q'x  s.t.  l <= Ax <= u`` by active sets.

    ``x0`` may supply a feasible start; otherwise phase 1 finds one (and
    detects primal infeasibility).
    """
    P = np.atleast_2d(np.asarray(P, dtype=np.float64))
    q = np.asarray(q, dtype=np.float64).ravel()
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    l = np.asarray(l, dtype=np.float64).ravel()
    u = np.asarray(u, dtype=np.float64).ravel()
    n = q.size
    m = A.shape[0]
    if P.shape != (n, n) or A.shape[1] != n or l.size != m or u.size != m:
        raise ValueError("inconsistent problem dimensions")
    if np.any(l > u + 1e-12):
        raise ValueError("infeasible box: some l > u")
    start_s = time.perf_counter()  # spotlint: allow-nondeterminism

    # Ensure strict convexity for the KKT solves.
    w_min = float(np.linalg.eigvalsh(P).min())
    if w_min < ridge:
        P = P + (ridge - min(w_min, 0.0) + ridge) * np.eye(n)

    # Phase 1: feasible start.
    if x0 is not None:
        x = np.asarray(x0, dtype=np.float64).ravel().copy()
        if x.shape != (n,):
            raise ValueError("x0 has wrong dimension")
        Ax = A @ x
        if np.any(Ax < l - 1e-7) or np.any(Ax > u + 1e-7):
            raise ValueError("x0 is not feasible")
    else:
        lp = solve_lp(np.zeros(n), A, l, u)
        if lp.status is SolverStatus.PRIMAL_INFEASIBLE:
            return SolverResult(
                x=np.full(n, np.nan),
                y=np.zeros(m),
                objective=float("nan"),
                status=SolverStatus.PRIMAL_INFEASIBLE,
                iterations=0,
            )
        x = lp.x.copy()
        # Snap marginal violations from the LP tolerance into the box.
        Ax = A @ x
        viol = np.maximum(l - Ax, Ax - u)
        if np.any(viol > 1e-7):
            # Tighten with a least-squares projection step.
            target = np.clip(Ax, l, u)
            step, *_ = np.linalg.lstsq(A, target - Ax, rcond=None)
            x = x + step

    if max_iter is None:
        max_iter = 20 * (n + m) + 50

    # Working set: list of (row_index, side) with side +1 = upper, -1 = lower.
    Ax = A @ x
    working: list[tuple[int, int]] = []
    for i in range(m):
        if np.isfinite(u[i]) and abs(Ax[i] - u[i]) <= _FEAS_TOL:
            working.append((i, +1))
        elif np.isfinite(l[i]) and abs(Ax[i] - l[i]) <= _FEAS_TOL:
            working.append((i, -1))

    status = SolverStatus.MAX_ITERATIONS
    y = np.zeros(m)
    it = 0
    for it in range(1, max_iter + 1):
        rows = [i for i, _ in working]
        A_w = A[rows] if rows else np.zeros((0, n))
        b_w = np.array(
            [u[i] if side > 0 else l[i] for i, side in working]
        )
        x_eq, lam = _kkt_solve(P, q, A_w, b_w)
        p = x_eq - x

        if np.linalg.norm(p, np.inf) <= _STEP_TOL:
            # Subproblem optimum: check multiplier signs.
            # Gradient: Px + q + A_w' lam = 0; for an upper-active row the
            # KKT multiplier must be >= 0, for lower-active <= 0.
            worst_idx = -1
            worst_val = -_MULT_TOL
            for k, (i, side) in enumerate(working):
                signed = lam[k] * side
                if signed < worst_val:
                    worst_val = signed
                    worst_idx = k
            if worst_idx < 0:
                y[:] = 0.0
                for k, (i, _side) in enumerate(working):
                    y[i] = lam[k]
                status = SolverStatus.OPTIMAL
                break
            working.pop(worst_idx)
            continue

        # Step length limited by blocking inactive constraints.
        Ap = A @ p
        Ax = A @ x
        alpha = 1.0
        blocker: tuple[int, int] | None = None
        active_rows = {i for i, _ in working}
        for i in range(m):
            if i in active_rows:
                continue
            if Ap[i] > _STEP_TOL and np.isfinite(u[i]):
                limit = (u[i] - Ax[i]) / Ap[i]
                if limit < alpha - 1e-14:
                    alpha = max(0.0, limit)
                    blocker = (i, +1)
            elif Ap[i] < -_STEP_TOL and np.isfinite(l[i]):
                limit = (l[i] - Ax[i]) / Ap[i]
                if limit < alpha - 1e-14:
                    alpha = max(0.0, limit)
                    blocker = (i, -1)
        x = x + alpha * p
        if blocker is not None:
            working.append(blocker)

    objective = float(0.5 * x @ P @ x + q @ x)
    return SolverResult(
        x=x,
        y=y,
        objective=objective,
        status=status,
        iterations=it,
        solve_time=time.perf_counter() - start_s,  # spotlint: allow-nondeterminism
    )
