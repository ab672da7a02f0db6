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
(``_apply_P_into``/``_apply_A_into``/``_apply_AT_into``, which write into
a given output, ``_solve_kkt_in_place`` and ``_factorize``).  Two backends
implement the hooks:

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

from repro.devtools.contracts import shapes
from repro.obs import get_tracer
from repro.solvers.result import SolverResult, SolverStatus

__all__ = ["QPProblem", "ADMMCore", "ADMMSolver", "solve_qp", "lapack"]

# Algorithm parameters (OSQP defaults, tightened tolerances).  SIGMA, the
# x-regularizer of the KKT matrix, is fixed; the others are defaults.
_DEFAULT_RHO = 0.1
_SIGMA = 1e-6
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


def lapack() -> tuple:
    """``(cho_factor, dpotrs, cholesky_banded, dpbtrs)``: the routines the
    dense and structured backends factor and solve with.

    ``scipy.linalg`` loads here, on a process's first factorization (every
    solver construction factorizes), not with this module: a run that
    builds no QP solver loads no SciPy.  A timer that should not bracket
    the import calls this before its clock starts.
    """
    from scipy.linalg import cho_factor, cholesky_banded
    from scipy.linalg.lapack import dpbtrs, dpotrs

    return cho_factor, dpotrs, cholesky_banded, dpbtrs


def _inf_norm(v: np.ndarray) -> np.floating:
    """``np.linalg.norm(v, np.inf)`` of a vector, without its dispatch.

    NumPy computes that norm as ``abs(v).max(initial=0)``; so does this,
    bit for bit, including ``0.0`` for an empty vector (no constraint rows).
    """
    return np.abs(v).max(initial=0.0)


def _solved_in_place(x: np.ndarray, rhs: np.ndarray, routine: str) -> np.ndarray:
    """Return ``rhs``, checking that the LAPACK ``routine``, called on it
    with ``overwrite_b=True``, returned it as ``x``.  Given a buffer it
    cannot overwrite (a non-contiguous one), the routine solves a copy and
    returns that, leaving ``rhs`` unsolved: raise rather than drop the
    solve."""
    if x is not rhs:
        raise ValueError(
            f"{routine} solved a copy: the right-hand side must be a "
            "contiguous float64 buffer"
        )
    return rhs


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
    - implement ``_apply_P_into(v, out)``, ``_apply_A_into(v, out)``,
      ``_apply_AT_into(w, out)`` — the *scaled* operators ``P̂v``, ``Âv``,
      ``Â'w``, written into ``out`` and returning it;
    - implement ``_factorize()`` (rebuild the KKT factorization for the
      current ``self._rho``) and ``_solve_kkt_in_place(rhs)``, which
      overwrites the contiguous ``rhs`` with the solution and returns it;
    - implement ``_objective_orig(x)`` — ``1/2 x'Px`` in original
      coordinates (the linear term is added by the core).

    Everything else — iteration, termination, infeasibility certificates,
    adaptive-rho retuning, warm-start state — is shared, so the dense and
    structured paths run the *same algorithm* and land on the same optimum.
    The iteration allocates nothing: it runs in buffers ``_init_core``
    makes once per solver, with the state stacked as ``[x; z]`` and the
    dual ``y`` beside ``q̂`` in ``[q̂; y]`` (see DESIGN.md).
    """

    def __init__(
        self,
        n: int,
        m: int,
        *,
        rho: float = _DEFAULT_RHO,
        alpha: float = _DEFAULT_ALPHA,
        eps_abs: float = _DEFAULT_EPS_ABS,
        eps_rel: float = _DEFAULT_EPS_REL,
        max_iter: int = _DEFAULT_MAX_ITER,
    ) -> None:
        if rho <= 0:
            raise ValueError("rho must be positive")
        if not 0 < alpha < 2:
            raise ValueError("relaxation alpha must lie in (0, 2)")
        self.n = int(n)
        self.m = int(m)
        self.alpha = float(alpha)
        self.eps_abs = float(eps_abs)
        self.eps_rel = float(eps_rel)
        self.max_iter = int(max_iter)
        self._rho0 = self._rho = float(rho)

    def _init_core(self) -> None:
        """Finish setup once ``_D``/``_E`` exist: factorize, zero the state
        and allocate the iteration's buffers."""
        with get_tracer().span(
            "qp.factorize", n=self.n, m=self.m, phase="init"
        ):
            self._factorize()
        n = self.n
        # Warm-start state (in scaled coordinates), kept across solve()
        # calls: [x; z], and y behind the solve's q̂ in [q̂; y].
        self._xz = np.zeros(n + self.m)
        self._qy = np.zeros(n + self.m)
        self._x, self._z = self._xz[:n], self._xz[n:]
        self._y = self._qy[n:]
        # Scratch, overwritten by every solve: [x̃; z̃]; the state's two
        # scalings, [σx; ρz] and (1 − α)[x; z], as the rows of one product
        # with the rows of [[σ; ρ], [1 − α]]; and [x; y] at the last
        # convergence check.
        self._work = np.empty(n + self.m)
        self._scaled_state = np.empty((2, n + self.m))
        self._state_scales = np.empty((2, n + self.m))
        self._prev = np.empty(n + self.m)

    # -------------------------------------------------- backend hooks
    def _apply_P_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _apply_A_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _apply_AT_into(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _factorize(self) -> None:
        raise NotImplementedError

    def _solve_kkt_in_place(self, rhs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _objective_orig(self, x: np.ndarray) -> float:
        """``1/2 x' P x`` at an *unscaled* point."""
        raise NotImplementedError

    # Allocating forms of the hooks, for callers off the iteration's path.
    def _apply_P(self, v: np.ndarray) -> np.ndarray:
        return self._apply_P_into(v, np.empty(self.n))

    def _apply_A(self, v: np.ndarray) -> np.ndarray:
        return self._apply_A_into(v, np.empty(self.m))

    def _apply_AT(self, w: np.ndarray) -> np.ndarray:
        return self._apply_AT_into(w, np.empty(self.n))

    def _solve_kkt(self, rhs: np.ndarray) -> np.ndarray:
        return self._solve_kkt_in_place(np.array(rhs, dtype=np.float64))

    # -------------------------------------------------- public interface
    @property
    def rho(self) -> float:
        """Current ADMM penalty parameter."""
        return self._rho

    def reset(self) -> None:
        """Cold start the next solve: zero the warm-start state and restore
        the initial ``rho`` (refactorizing if a retune moved it), so the
        next solve equals a fresh solver's."""
        self._x[:] = 0.0
        self._z[:] = 0.0
        self._y[:] = 0.0
        if self._rho != self._rho0:
            self._rho = self._rho0
            with get_tracer().span(
                "qp.factorize", n=self.n, m=self.m, phase="reset"
            ):
                self._factorize()

    def warm_start(self, x: np.ndarray, y: np.ndarray | None = None) -> None:
        """Seed the next solve with an (unscaled) primal and optional dual.

        The state is written in place; the solver keeps no reference to
        ``x`` or ``y``.
        """
        x = np.asarray(x, dtype=np.float64).ravel()
        if x.shape != self._x.shape:
            raise ValueError("warm-start x has wrong dimension")
        if y is not None:
            y = np.asarray(y, dtype=np.float64).ravel()
            if y.shape != self._y.shape:
                raise ValueError("warm-start y has wrong dimension")
        np.divide(x, self._D, out=self._x)
        self._apply_A_into(self._x, self._z)
        if y is not None:
            np.divide(y, self._E, out=self._y)

    @shapes("(N,)", "(M,)", "(M,)")
    def solve(self, q: np.ndarray, l: np.ndarray, u: np.ndarray) -> SolverResult:
        """Solve ``min 1/2 x'Px + q'x  s.t.  l <= Ax <= u``.

        Inputs are in the original (unscaled) coordinates.  Raises
        ``ValueError``, before the warm-start state is touched, on a
        dimension mismatch, a non-finite ``q``, a NaN bound or an empty
        box; infinite bounds are one-sided or free rows.
        """
        q = np.asarray(q, dtype=np.float64).ravel()
        l = np.asarray(l, dtype=np.float64).ravel()
        u = np.asarray(u, dtype=np.float64).ravel()
        m, n = self.m, self.n
        if q.shape != (n,):
            raise ValueError(f"q must have {n} entries")
        if l.shape != (m,) or u.shape != (m,):
            raise ValueError(f"l and u must have {m} entries")
        if not np.isfinite(q).all():
            raise ValueError("q must be finite")
        if np.isnan(l).any() or np.isnan(u).any():
            raise ValueError("l and u must not be NaN")
        if np.any(l > u + 1e-12):
            raise ValueError("infeasible box: some l > u")

        start_s = time.perf_counter()  # spotlint: allow-nondeterminism
        tracer = get_tracer()
        solve_span = tracer.span("qp.solve", n=n, m=m)
        solve_span.__enter__()
        D, E = self._D, self._E
        xz, qy = self._xz, self._qy
        x, z, y = self._x, self._z, self._y
        with tracer.span("qp.setup"):
            # Scale the linear data: q̂ = D q, l̂ = E l, û = E u.
            qs = np.multiply(D, q, out=qy[:n])
            ls = E * l
            us = E * u
            z.clip(ls, us, out=z)
        # Each iteration runs in the solver's buffers: ``work`` holds
        # ``[x̃; z̃]`` and then ``[x_next; z_relaxed]``, and one product
        # scales the state into ``terms`` = ``[σx; ρz]`` and ``kept`` =
        # ``(1 − α)[x; z]``.  Stacking x with z (and q̂ with y) makes every
        # operation that treats them alike one ufunc call, so an iteration is
        # 11 elementwise calls, a copy, two operator applications and one
        # in-place KKT solve, none of which allocates.  Keep every float
        # expression's operands and order: results must stay bit for bit
        # those of ReferenceADMMLoop in tests/conftest.py.
        work, prev = self._work, self._prev
        scales, scaled = self._state_scales, self._scaled_state
        terms, kept = scaled
        x_tilde, z_tilde = work[:n], work[n:]
        terms_x, terms_z = terms[:n], terms[n:]
        x_prev, y_prev = prev[:n], prev[n:]
        # The scalars as 0-d arrays: a ufunc converts a Python float operand
        # on every call, at about the cost of the arithmetic at these sizes.
        alpha = np.array(self.alpha)
        rho = np.array(self._rho)
        scales[0, :n] = _SIGMA
        scales[0, n:] = rho
        scales[1] = 1.0 - self.alpha
        max_iter = self.max_iter
        apply_A, apply_AT = self._apply_A_into, self._apply_AT_into
        solve_kkt = self._solve_kkt_in_place
        multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide
        qs_norm = _inf_norm(qs / D)
        inf_l, inf_u = np.isinf(ls), np.isinf(us)
        status = SolverStatus.MAX_ITERATIONS
        r_prim = r_dual = float("inf")
        x_prev[:] = x
        y_prev[:] = y
        it = 0
        iterate_span = tracer.span("qp.iterate")
        iterate_span.__enter__()
        for it in range(1, max_iter + 1):
            multiply(scales, xz, out=scaled)  # [σx; ρz] and (1 − α)[x; z]
            subtract(terms, qy, out=terms)  # [σx − q̂; ρz − y]
            apply_AT(terms_z, x_tilde)
            add(terms_x, x_tilde, out=x_tilde)  # the KKT right-hand side
            solve_kkt(x_tilde)
            apply_A(x_tilde, z_tilde)
            multiply(work, alpha, out=work)
            add(work, kept, out=work)  # [x_next; z_relaxed]
            divide(y, rho, out=terms_z)
            add(z_tilde, terms_z, out=terms_z)
            # ndarray.clip is np.clip's ufunc without the fromnumeric wrapper.
            terms_z.clip(ls, us, out=z)  # z_next
            subtract(z_tilde, z, out=z_tilde)
            multiply(z_tilde, rho, out=z_tilde)
            add(y, z_tilde, out=y)
            x[:] = x_tilde  # x_next

            if it % _CHECK_EVERY == 0 or it == max_iter:
                # The operators write into the scratch the iteration is done
                # with, and the certificate's deltas then overwrite them.
                Ax = apply_A(x, z_tilde)
                Px = self._apply_P_into(x, x_tilde)
                Aty = apply_AT(y, terms_x)
                # Residuals in original coordinates.
                r_prim = float(_inf_norm((Ax - z) / E))
                r_dual = float(_inf_norm((Px + qs + Aty) / D))
                eps_prim = self.eps_abs + self.eps_rel * max(
                    _inf_norm(Ax / E), _inf_norm(z / E)
                )
                eps_dual = self.eps_abs + self.eps_rel * max(
                    _inf_norm(Px / D), qs_norm, _inf_norm(Aty / D)
                )
                if r_prim <= eps_prim and r_dual <= eps_dual:
                    status = SolverStatus.OPTIMAL
                    break
                certificate = self._infeasibility_certificate(
                    subtract(x, x_prev, out=x_tilde),
                    subtract(y, y_prev, out=z_tilde),
                    qs,
                    ls,
                    us,
                    inf_l,
                    inf_u,
                )
                if certificate is not None:
                    status = certificate
                    break
                x_prev[:] = x
                y_prev[:] = y
                self._maybe_retune_rho(r_prim, eps_prim, r_dual, eps_dual)
                rho[...] = self._rho
                scales[0, n:] = rho

        iterate_span.tag(iterations=it).__exit__(None, None, None)
        elapsed = time.perf_counter() - start_s  # spotlint: allow-nondeterminism
        solve_span.tag(iterations=it, status=status.value).__exit__(
            None, None, None
        )
        x_out = D * x
        y_out = E * y
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
        inf_l: np.ndarray,
        inf_u: np.ndarray,
        eps: float = 1e-5,
    ) -> SolverStatus | None:
        """OSQP infeasibility tests on the iterate deltas.

        A non-vanishing ``dy`` whose support function over the box is negative
        certifies primal infeasibility; a non-vanishing ``dx`` that is a
        descent recession direction certifies dual infeasibility (unbounded
        objective).  ``inf_l``/``inf_u`` are ``np.isinf(ls)``/``np.isinf(us)``,
        built once per solve.  Returns the matching status or ``None``.
        Each certificate is a conjunction of pure tests, so they run in
        the order that ends it soonest, which returns the same status:
        ``Â'dy`` (on the costsim workloads it never vanishes, while the
        support is negative at one check in ten) before the finite-support
        test and the dearer support value, and ``q̂'dx`` before ``Â dx``
        and ``P̂ dx``.
        """
        norm_dy = float(_inf_norm(dy))
        if norm_dy > eps:
            dyn = dy / norm_dy
            # Infinite bounds paired with nonzero multiplier deltas can never
            # certify (the support function is +inf there); ``dyn > eps``
            # is ``max(dyn, 0) > eps``.
            if (
                _inf_norm(self._apply_AT(dyn)) <= eps
                and not (((dyn > eps) & inf_u).any() or ((dyn < -eps) & inf_l).any())
            ):
                dy_pos = np.maximum(dyn, 0.0)
                dy_neg = np.minimum(dyn, 0.0)
                support = float(
                    np.sum(np.where(dy_pos > 0, us, 0.0) * dy_pos)
                    + np.sum(np.where(dy_neg < 0, ls, 0.0) * dy_neg)
                )
                if support <= -eps:
                    return SolverStatus.PRIMAL_INFEASIBLE
        norm_dx = float(_inf_norm(dx))
        if norm_dx > eps:
            dxn = dx / norm_dx
            if float(qs @ dxn) <= -eps:
                Adx = self._apply_A(dxn)
                if (
                    ((Adx <= eps) | inf_u).all()
                    and ((Adx >= -eps) | inf_l).all()
                    and _inf_norm(self._apply_P(dxn)) <= eps
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
        # A view, not a contiguous copy: a copy's gemv could sum in another
        # order and move the iterates' last bits.
        self._AT = self.A.T
        self._init_core()

    def _apply_P_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.matmul(self.P, v, out=out)

    def _apply_A_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.matmul(self.A, v, out=out)

    def _apply_AT_into(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.matmul(self._AT, w, out=out)

    def _factorize(self) -> None:
        cho_factor, self._potrs, _, _ = lapack()
        n = self.P.shape[0]
        kkt = self.P + _SIGMA * np.eye(n) + self._rho * (self._AT @ self.A)
        self._chol, _ = cho_factor(kkt, lower=True, check_finite=False)

    def _solve_kkt_in_place(self, rhs: np.ndarray) -> np.ndarray:
        # The LAPACK routine cho_solve dispatches to for float64 (dpotrs),
        # called directly: the wrapper's checks and lookup cost several
        # times the O(n^2) solve at these sizes.
        # (c, b, lower, overwrite_b), positionally: f2py's keyword parsing
        # costs ~0.4 µs a call, over a tenth of this solve at n = 48.
        x, info = self._potrs(self._chol, rhs, True, True)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return _solved_in_place(x, rhs, "potrs")

    def _objective_orig(self, x: np.ndarray) -> float:
        return float(0.5 * x @ self.P_orig @ x)


def solve_qp(problem: QPProblem, **solver_kwargs) -> SolverResult:
    """One-shot convenience wrapper around :class:`ADMMSolver`."""
    solver = ADMMSolver(problem.P, problem.A, **solver_kwargs)
    return solver.solve(problem.q, problem.l, problem.u)
