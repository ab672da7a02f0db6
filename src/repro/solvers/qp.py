"""OSQP-style ADMM solver for convex quadratic programs.

Solves problems of the form::

    minimize    1/2 x' P x + q' x
    subject to  l <= A x <= u

where ``P`` is symmetric positive semidefinite.  The algorithm is the
operator-splitting method of Stellato et al. (OSQP), the same algorithm
family as the SCS solver the paper uses via CVXPY: alternate a linear-system
solve with a projection onto the constraint box, plus a dual update.  Two
standard robustness devices are included:

- **Ruiz equilibration** — iterative row/column scaling of the KKT data so
  badly scaled problems (price coefficients spanning orders of magnitude)
  converge reliably.
- **Adaptive rho** — the ADMM penalty is retuned from the ratio of primal to
  dual residuals, with the KKT matrix refactorized on each retune.

The iteration itself is independent of how the linear algebra is carried
out, so it lives in :class:`ADMMCore`, parameterized over five hooks
(``_apply_P``/``_apply_A``/``_apply_AT``/``_solve_kkt``/``_factorize``).
Two backends implement the hooks:

- :class:`ADMMSolver` (this module) — dense NumPy/SciPy ``cho_factor`` on
  the full ``(n, n)`` KKT matrix.  For unstructured mid-size problems a
  cached dense Cholesky beats sparse machinery.
- :class:`repro.solvers.structured.StructuredADMMSolver` — a
  block-tridiagonal factorization exploiting the MPO program's banded
  time structure, O(H·N³) instead of O((N·H)³).

Two properties matter for the receding-horizon loop regardless of backend:

- **Cached factorization** — the KKT matrix depends only on ``P``, ``A`` and
  the penalty ``rho``; re-solves with new ``q``/``l``/``u`` (new prices and
  workload predictions) reuse the factorization.
- **Warm starting** — consecutive intervals have similar optima; warm starts
  cut iteration counts dramatically (exercised by the Fig. 7(b) scalability
  benchmark).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from repro.devtools.contracts import shapes
from repro.obs import get_tracer
from repro.solvers.result import SolverResult, SolverStatus

__all__ = ["QPProblem", "ADMMCore", "ADMMSolver", "solve_qp"]

# Default algorithm parameters (OSQP defaults, tightened tolerances).
_DEFAULT_RHO = 0.1
_DEFAULT_SIGMA = 1e-6
_DEFAULT_ALPHA = 1.6
_DEFAULT_EPS_ABS = 1e-6
_DEFAULT_EPS_REL = 1e-6
_DEFAULT_MAX_ITER = 50_000
_CHECK_EVERY = 25
_RUIZ_ITERS = 10
_RHO_TOL = 5.0  # retune rho when residual ratio drifts past this factor
_RHO_MIN, _RHO_MAX = 1e-6, 1e6


@dataclass
class QPProblem:
    """A quadratic program ``min 1/2 x'Px + q'x  s.t.  l <= Ax <= u``.

    ``P`` must be symmetric PSD.  Equality constraints are expressed with
    ``l == u`` rows; one-sided constraints with ``+/- inf`` bounds.
    """

    P: np.ndarray
    q: np.ndarray
    A: np.ndarray
    l: np.ndarray
    u: np.ndarray

    def __post_init__(self) -> None:
        self.P = np.atleast_2d(np.asarray(self.P, dtype=np.float64))
        self.q = np.asarray(self.q, dtype=np.float64).ravel()
        self.A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        self.l = np.asarray(self.l, dtype=np.float64).ravel()
        self.u = np.asarray(self.u, dtype=np.float64).ravel()
        n = self.q.size
        m = self.A.shape[0]
        if self.P.shape != (n, n):
            raise ValueError(f"P must be {n}x{n}, got {self.P.shape}")
        if self.A.shape[1] != n:
            raise ValueError(f"A must have {n} columns, got {self.A.shape[1]}")
        if self.l.shape != (m,) or self.u.shape != (m,):
            raise ValueError("l and u must have one entry per row of A")
        if np.any(self.l > self.u + 1e-12):
            raise ValueError("infeasible box: some l > u")
        if not np.allclose(self.P, self.P.T, atol=1e-8):
            raise ValueError("P must be symmetric")

    @property
    def num_vars(self) -> int:
        return self.q.size

    @property
    def num_constraints(self) -> int:
        return self.A.shape[0]

    def objective(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(0.5 * x @ self.P @ x + self.q @ x)


def _ruiz_equilibrate(
    P: np.ndarray, A: np.ndarray, iters: int = _RUIZ_ITERS
) -> tuple[np.ndarray, np.ndarray]:
    """Compute diagonal scalings ``D`` (vars) and ``E`` (rows of A).

    Iteratively scales the stacked KKT data so every row/column of the scaled
    ``[[P, A'], [A, 0]]`` has unit infinity norm (modified Ruiz procedure).
    Returns the diagonal vectors; the scaled problem uses ``P̂ = D P D``,
    ``Â = E A D``.
    """
    n = P.shape[0]
    m = A.shape[0]
    D = np.ones(n)
    E = np.ones(m)
    Ps = P.copy()
    As = A.copy()
    for _ in range(iters):
        col_norm_P = np.max(np.abs(Ps), axis=0, initial=0.0)
        col_norm_A = np.max(np.abs(As), axis=0, initial=0.0)
        col_norm = np.maximum(col_norm_P, col_norm_A)
        d = 1.0 / np.sqrt(np.where(col_norm > 1e-12, col_norm, 1.0))
        row_norm = np.max(np.abs(As), axis=1, initial=0.0)
        e = 1.0 / np.sqrt(np.where(row_norm > 1e-12, row_norm, 1.0))
        Ps = Ps * d[:, None] * d[None, :]
        As = As * e[:, None] * d[None, :]
        D *= d
        E *= e
        if np.max(np.abs(d - 1.0), initial=0.0) < 1e-3 and np.max(
            np.abs(e - 1.0), initial=0.0
        ) < 1e-3:
            break
    return D, E


class ADMMCore:
    """The backend-independent ADMM iteration.

    Subclasses provide the scalings and the linear algebra:

    - set ``self._D`` (``(n,)`` variable scaling) and ``self._E`` (``(m,)``
      row scaling) before calling ``_init_core``;
    - implement ``_apply_P(v)``, ``_apply_A(v)``, ``_apply_AT(w)`` — the
      *scaled* operators ``P̂v``, ``Âv``, ``Â'w``;
    - implement ``_factorize()`` (rebuild the KKT factorization for the
      current ``self._rho``) and ``_solve_kkt(rhs)``;
    - implement ``_objective_orig(x)`` — ``1/2 x'Px`` in original
      coordinates (the linear term is added by the core).

    Everything else — iteration, termination, infeasibility certificates,
    adaptive-rho retuning, warm-start state — is shared, so the dense and
    structured paths run the *same algorithm* and land on the same optimum.
    """

    def __init__(
        self,
        n: int,
        m: int,
        *,
        rho: float = _DEFAULT_RHO,
        sigma: float = _DEFAULT_SIGMA,
        alpha: float = _DEFAULT_ALPHA,
        eps_abs: float = _DEFAULT_EPS_ABS,
        eps_rel: float = _DEFAULT_EPS_REL,
        max_iter: int = _DEFAULT_MAX_ITER,
        adaptive_rho: bool = True,
    ) -> None:
        if rho <= 0 or sigma <= 0:
            raise ValueError("rho and sigma must be positive")
        if not 0 < alpha < 2:
            raise ValueError("relaxation alpha must lie in (0, 2)")
        self.n = int(n)
        self.m = int(m)
        self.sigma = float(sigma)
        self.alpha = float(alpha)
        self.eps_abs = float(eps_abs)
        self.eps_rel = float(eps_rel)
        self.max_iter = int(max_iter)
        self.adaptive_rho = bool(adaptive_rho)
        self._rho = float(rho)

    def _init_core(self) -> None:
        """Finish setup once ``_D``/``_E`` exist: factorize, zero the state."""
        with get_tracer().span(
            "qp.factorize", n=self.n, m=self.m, phase="init"
        ):
            self._factorize()
        # Warm-start state (in scaled coordinates), kept across solve() calls.
        self._x = np.zeros(self.n)
        self._z = np.zeros(self.m)
        self._y = np.zeros(self.m)

    # -------------------------------------------------- backend hooks
    def _apply_P(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _apply_A(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _apply_AT(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _factorize(self) -> None:
        raise NotImplementedError

    def _solve_kkt(self, rhs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _objective_orig(self, x: np.ndarray) -> float:
        """``1/2 x' P x`` at an *unscaled* point."""
        raise NotImplementedError

    # -------------------------------------------------- public interface
    @property
    def rho(self) -> float:
        """Current ADMM penalty parameter."""
        return self._rho

    def reset(self) -> None:
        """Forget the warm-start state (cold start the next solve)."""
        self._x[:] = 0.0
        self._z[:] = 0.0
        self._y[:] = 0.0

    def warm_start(self, x: np.ndarray, y: np.ndarray | None = None) -> None:
        """Seed the next solve with an (unscaled) primal and optional dual."""
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape != self._x.shape:
            raise ValueError("warm-start x has wrong dimension")
        self._x = x / self._D
        self._z = self._apply_A(self._x)
        if y is not None:
            y = np.asarray(y, dtype=np.float64).ravel()
            if y.shape != self._y.shape:
                raise ValueError("warm-start y has wrong dimension")
            self._y = y / self._E

    @shapes("(N,)", "(M,)", "(M,)")
    def solve(self, q: np.ndarray, l: np.ndarray, u: np.ndarray) -> SolverResult:
        """Solve ``min 1/2 x'Px + q'x  s.t.  l <= Ax <= u``.

        Inputs are in the original (unscaled) coordinates.  Raises
        ``ValueError`` on dimension mismatch or an empty box.
        """
        q = np.asarray(q, dtype=np.float64).ravel()
        l = np.asarray(l, dtype=np.float64).ravel()
        u = np.asarray(u, dtype=np.float64).ravel()
        m, n = self.m, self.n
        if q.shape != (n,):
            raise ValueError(f"q must have {n} entries")
        if l.shape != (m,) or u.shape != (m,):
            raise ValueError(f"l and u must have {m} entries")
        if np.any(l > u + 1e-12):
            raise ValueError("infeasible box: some l > u")

        start_s = time.perf_counter()  # spotlint: allow-nondeterminism
        tracer = get_tracer()
        solve_span = tracer.span("qp.solve", n=n, m=m)
        solve_span.__enter__()
        with tracer.span("qp.setup"):
            # Scale the linear data: q̂ = D q, l̂ = E l, û = E u.
            qs = self._D * q
            ls = self._E * l
            us = self._E * u

            x, z, y = self._x, np.clip(self._z, ls, us), self._y
        sigma, alpha = self.sigma, self.alpha
        status = SolverStatus.MAX_ITERATIONS
        r_prim = r_dual = float("inf")
        x_prev_check, y_prev_check = x.copy(), y.copy()
        it = 0
        iterate_span = tracer.span("qp.iterate")
        iterate_span.__enter__()
        for it in range(1, self.max_iter + 1):
            rho = self._rho
            rhs = sigma * x - qs + self._apply_AT(rho * z - y)
            x_tilde = self._solve_kkt(rhs)
            z_tilde = self._apply_A(x_tilde)
            x_next = alpha * x_tilde + (1.0 - alpha) * x
            z_relaxed = alpha * z_tilde + (1.0 - alpha) * z
            z_next = np.clip(z_relaxed + y / rho, ls, us)
            y = y + rho * (z_relaxed - z_next)
            x, z = x_next, z_next

            if it % _CHECK_EVERY == 0 or it == self.max_iter:
                Ax = self._apply_A(x)
                Px = self._apply_P(x)
                Aty = self._apply_AT(y)
                # Residuals in original coordinates.
                r_prim = float(np.linalg.norm((Ax - z) / self._E, np.inf))
                r_dual = float(np.linalg.norm((Px + qs + Aty) / self._D, np.inf))
                eps_prim = self.eps_abs + self.eps_rel * max(
                    np.linalg.norm(Ax / self._E, np.inf),
                    np.linalg.norm(z / self._E, np.inf),
                )
                eps_dual = self.eps_abs + self.eps_rel * max(
                    np.linalg.norm(Px / self._D, np.inf),
                    np.linalg.norm(qs / self._D, np.inf),
                    np.linalg.norm(Aty / self._D, np.inf),
                )
                if r_prim <= eps_prim and r_dual <= eps_dual:
                    status = SolverStatus.OPTIMAL
                    break
                certificate = self._infeasibility_certificate(
                    x - x_prev_check, y - y_prev_check, qs, ls, us
                )
                if certificate is not None:
                    status = certificate
                    break
                x_prev_check, y_prev_check = x.copy(), y.copy()
                if self.adaptive_rho:
                    self._maybe_retune_rho(r_prim, eps_prim, r_dual, eps_dual)

        iterate_span.tag(iterations=it).__exit__(None, None, None)
        self._x, self._z, self._y = x, z, y
        elapsed = time.perf_counter() - start_s  # spotlint: allow-nondeterminism
        solve_span.tag(iterations=it, status=status.value).__exit__(
            None, None, None
        )
        x_out = self._D * x
        y_out = self._E * y
        objective = self._objective_orig(x_out) + float(q @ x_out)
        return SolverResult(
            x=x_out,
            y=y_out,
            objective=objective,
            status=status,
            iterations=it,
            primal_residual=r_prim,
            dual_residual=r_dual,
            solve_time=elapsed,
        )

    def _infeasibility_certificate(
        self,
        dx: np.ndarray,
        dy: np.ndarray,
        qs: np.ndarray,
        ls: np.ndarray,
        us: np.ndarray,
        eps: float = 1e-5,
    ) -> SolverStatus | None:
        """OSQP infeasibility tests on the iterate deltas.

        A non-vanishing ``dy`` whose support function over the box is negative
        certifies primal infeasibility; a non-vanishing ``dx`` that is a
        descent recession direction certifies dual infeasibility (unbounded
        objective).  Returns the matching status or ``None``.
        """
        norm_dy = float(np.linalg.norm(dy, np.inf))
        if norm_dy > eps:
            dyn = dy / norm_dy
            dy_pos = np.maximum(dyn, 0.0)
            dy_neg = np.minimum(dyn, 0.0)
            # Infinite bounds paired with nonzero multiplier deltas can never
            # certify (the support function is +inf there).
            support_finite = not (
                np.any((dy_pos > eps) & np.isinf(us))
                or np.any((dy_neg < -eps) & np.isinf(ls))
            )
            if support_finite:
                support = float(
                    np.sum(np.where(dy_pos > 0, us, 0.0) * dy_pos)
                    + np.sum(np.where(dy_neg < 0, ls, 0.0) * dy_neg)
                )
                if (
                    np.linalg.norm(self._apply_AT(dyn), np.inf) <= eps
                    and support <= -eps
                ):
                    return SolverStatus.PRIMAL_INFEASIBLE
        norm_dx = float(np.linalg.norm(dx, np.inf))
        if norm_dx > eps:
            dxn = dx / norm_dx
            Adx = self._apply_A(dxn)
            upper_ok = np.all((Adx <= eps) | np.isinf(us))
            lower_ok = np.all((Adx >= -eps) | np.isinf(ls))
            if (
                np.linalg.norm(self._apply_P(dxn), np.inf) <= eps
                and float(qs @ dxn) <= -eps
                and upper_ok
                and lower_ok
            ):
                return SolverStatus.DUAL_INFEASIBLE
        return None

    def _maybe_retune_rho(
        self, r_prim: float, eps_prim: float, r_dual: float, eps_dual: float
    ) -> None:
        """OSQP rho adaptation: balance scaled primal vs dual residuals."""
        scaled_prim = r_prim / max(eps_prim, 1e-12)
        scaled_dual = r_dual / max(eps_dual, 1e-12)
        if scaled_dual <= 0 or scaled_prim <= 0:
            return
        ratio = np.sqrt(scaled_prim / scaled_dual)
        if ratio > _RHO_TOL or ratio < 1.0 / _RHO_TOL:
            new_rho = float(np.clip(self._rho * ratio, _RHO_MIN, _RHO_MAX))
            if not np.isclose(new_rho, self._rho):
                self._rho = new_rho
                with get_tracer().span(
                    "qp.factorize", n=self.n, m=self.m, phase="rho_retune"
                ):
                    self._factorize()


class ADMMSolver(ADMMCore):
    """Dense-backend ADMM solver bound to a fixed ``(P, A)`` pair.

    Construct once, then call :meth:`solve` repeatedly with updated linear
    terms and bounds.  This is exactly the access pattern of SpotWeb's
    receding-horizon optimizer, where the quadratic risk term and the
    constraint matrix are fixed by the market set and horizon, while prices,
    failure probabilities and workload predictions move every interval.
    """

    def __init__(
        self,
        P: np.ndarray,
        A: np.ndarray,
        *,
        scale: bool = True,
        **core_kwargs,
    ) -> None:
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        A = np.atleast_2d(np.asarray(A, dtype=np.float64))
        if P.shape[0] != P.shape[1]:
            raise ValueError("P must be square")
        if A.shape[1] != P.shape[0]:
            raise ValueError("A column count must match P dimension")
        n, m = P.shape[0], A.shape[0]
        super().__init__(n, m, **core_kwargs)
        self.P_orig = P
        self.A_orig = A
        if scale:
            self._D, self._E = _ruiz_equilibrate(P, A)
        else:
            self._D, self._E = np.ones(n), np.ones(m)
        self.P = P * self._D[:, None] * self._D[None, :]
        self.A = A * self._E[:, None] * self._D[None, :]
        self._init_core()

    def _apply_P(self, v: np.ndarray) -> np.ndarray:
        return self.P @ v

    def _apply_A(self, v: np.ndarray) -> np.ndarray:
        return self.A @ v

    def _apply_AT(self, w: np.ndarray) -> np.ndarray:
        return self.A.T @ w

    def _factorize(self) -> None:
        n = self.P.shape[0]
        kkt = self.P + self.sigma * np.eye(n) + self._rho * (self.A.T @ self.A)
        self._factor = cho_factor(kkt, lower=True, check_finite=False)

    def _solve_kkt(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve(self._factor, rhs, check_finite=False)

    def _objective_orig(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.P_orig @ x)


def solve_qp(
    problem: QPProblem,
    *,
    warm_x: np.ndarray | None = None,
    **solver_kwargs,
) -> SolverResult:
    """One-shot convenience wrapper around :class:`ADMMSolver`."""
    solver = ADMMSolver(problem.P, problem.A, **solver_kwargs)
    if warm_x is not None:
        solver.warm_start(warm_x)
    return solver.solve(problem.q, problem.l, problem.u)
