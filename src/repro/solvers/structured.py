"""Structure-exploiting ADMM path for the SpotWeb multi-period program.

The MPO QP (Eq. 6) is not a generic quadratic program.  Its Hessian is
**block-tridiagonal in time**: the only inter-period coupling is the churn
term ``gamma * ||A_tau - A_{tau-1}||^2``, which contributes ``-2 gamma I``
off-diagonal blocks, while each diagonal block is the per-period risk matrix
``2 alpha M`` plus a churn diagonal.  The constraints are strictly
per-period: a box on every variable and one total-allocation row per
interval.  Consequently the ADMM KKT matrix

    K = P̂ + sigma I + rho Â'Â

is itself block-tridiagonal with ``N x N`` blocks (``Â'Â`` is per-period:
a diagonal from the box rows plus a rank-one from the sum row), and the
off-diagonal blocks are *diagonal* matrices.  A block-tridiagonal Cholesky
factorizes it in ``O(H * N^3)`` instead of the dense path's
``O((N*H)^3)`` — the asymptotic gap behind Fig. 7(b)'s sub-second solves at
hundreds of markets.

Pieces:

- :class:`MPOStructure` — the immutable descriptor of one program family
  ``(N, H, risk block, churn weight)``; built once per optimizer key and
  shared by every re-solve.
- :class:`BlockTridiagFactor` — the banded Cholesky factorization (the
  diagonal off-blocks make the matrix banded with bandwidth ``N``, so
  factor and solve are single LAPACK ``pbtrf``/``pbtrs`` calls).
- :class:`StructuredADMMSolver` — an :class:`~repro.solvers.qp.ADMMCore`
  backend that never materializes the ``(N*H, N*H)`` matrices: Ruiz
  equilibration, all operator applications, and the factorization work on
  ``(H, N)`` / ``(H, N, N)`` arrays.  A rho retune only touches the
  rho-scaled diagonal + rank-one pieces of each block (cached separately),
  so refactorization stays ``O(H * N^3)`` with ``O(H * N^2)`` assembly and
  no dense rebuild.

The dense :class:`~repro.solvers.qp.ADMMSolver` remains the fallback for
generic problems and is cross-checked against this path in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devtools.contracts import freeze_arrays
from repro.solvers.qp import ADMMCore, _RUIZ_ITERS, _solved_in_place, lapack

__all__ = ["MPOStructure", "BlockTridiagFactor", "StructuredADMMSolver"]


@dataclass(frozen=True)
class MPOStructure:
    """Descriptor of the MPO program family solved every interval.

    Attributes
    ----------
    num_markets:
        ``N`` — width of one period block.
    horizon:
        ``H`` — number of periods (diagonal blocks).
    risk:
        ``(N, N)`` symmetric PSD per-period quadratic block, already
        including its factor of two: ``2 * alpha * M``.
    churn:
        Off-diagonal coupling magnitude ``2 * gamma`` (non-negative).  The
        diagonal churn contribution is ``churn * c_tau`` with ``c_tau = 2``
        for interior periods and ``1`` for the last.
    """

    num_markets: int
    horizon: int
    risk: np.ndarray
    churn: float

    def __post_init__(self) -> None:
        if self.num_markets < 1 or self.horizon < 1:
            raise ValueError("num_markets and horizon must be >= 1")
        if self.churn < 0:
            raise ValueError("churn must be non-negative")
        N = self.num_markets
        risk = np.atleast_2d(np.asarray(self.risk, dtype=np.float64))
        if risk.shape != (N, N):
            raise ValueError(f"risk must be ({N}, {N}), got {risk.shape}")
        if not np.allclose(risk, risk.T, atol=1e-8):
            raise ValueError("risk must be symmetric")
        object.__setattr__(self, "risk", risk)
        freeze_arrays(self, "risk")

    @property
    def num_vars(self) -> int:
        return self.num_markets * self.horizon

    @property
    def num_constraints(self) -> int:
        """Box rows (one per variable) plus one sum row per period."""
        return self.num_vars + self.horizon

    def churn_diag_coeffs(self) -> np.ndarray:
        """``(H,)`` per-period diagonal churn multipliers ``c_tau``."""
        c = np.full(self.horizon, 2.0)
        c[-1] = 1.0
        return c

    # ------------------------------------------------ dense equivalents
    def dense_hessian(self) -> np.ndarray:
        """Materialize ``P`` — for tests and the dense fallback only."""
        N, H = self.num_markets, self.horizon
        P = np.zeros((N * H, N * H))
        coeffs = self.churn_diag_coeffs()
        eye = np.eye(N)
        for tau in range(H):
            block = slice(tau * N, (tau + 1) * N)
            P[block, block] = self.risk + self.churn * coeffs[tau] * eye
            if tau > 0:
                prev = slice((tau - 1) * N, tau * N)
                P[block, prev] = -self.churn * eye
                P[prev, block] = -self.churn * eye
        return P

    def dense_constraints(self) -> np.ndarray:
        """Materialize the 0/1 constraint pattern ``A`` — tests only."""
        N, H = self.num_markets, self.horizon
        n = N * H
        A = np.zeros((n + H, n))
        A[:n, :n] = np.eye(n)
        for tau in range(H):
            A[n + tau, tau * N : (tau + 1) * N] = 1.0
        return A


class BlockTridiagFactor:
    """Cholesky factorization of a symmetric block-tridiagonal SPD matrix.

    Takes diagonal blocks ``K_0 .. K_{H-1}`` (``(H, N, N)``) and diagonal
    sub-diagonal blocks ``b_1 .. b_{H-1}`` (``(H-1, N)`` vectors, block
    ``(tau, tau-1) = diag(b_tau)``).  Because the sub-diagonal blocks are
    diagonal, the assembled matrix is *banded* with lower bandwidth exactly
    ``N``: within a block the entries sit at offsets ``0 .. N-1`` and the
    inter-period coupling at offset ``N``.  The matrix is therefore packed
    into LAPACK lower-banded storage (``ab[k, j] = K[j + k, j]``) and
    factorized with a single banded Cholesky (``pbtrf``) — ``O(H * N^3)``
    flops, one native call instead of ``H`` Python-level block steps.
    Solves are one ``pbtrs`` call, ``O(H * N^2)``.
    """

    def __init__(self, diag_blocks: np.ndarray, offdiag: np.ndarray) -> None:
        diag_blocks = np.asarray(diag_blocks, dtype=np.float64)
        if diag_blocks.ndim != 3 or diag_blocks.shape[1] != diag_blocks.shape[2]:
            raise ValueError("diag_blocks must be (H, N, N)")
        H, N = diag_blocks.shape[0], diag_blocks.shape[1]
        offdiag = np.asarray(offdiag, dtype=np.float64)
        if H > 1:
            offdiag = offdiag.reshape(H - 1, -1)
            if offdiag.shape != (H - 1, N):
                raise ValueError("offdiag must be (H-1, N) diagonal vectors")
        self.H, self.N = H, N
        bandwidth = N if H > 1 else N - 1
        ab = np.zeros((bandwidth + 1, H * N))
        for k in range(N):
            # k-th sub-diagonal of every block at once: (H, N - k).
            ab[k].reshape(H, N)[:, : N - k] = np.diagonal(
                diag_blocks, offset=-k, axis1=1, axis2=2
            )
        if H > 1:
            ab[N, : (H - 1) * N] = offdiag.ravel()
        _, _, cholesky_banded, self._pbtrs = lapack()
        self._cb = cholesky_banded(ab, lower=True, check_finite=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``K x = rhs`` for a flat ``(H * N,)`` right-hand side."""
        return self.solve_in_place(np.array(rhs, dtype=np.float64, order="F"))

    def solve_in_place(self, rhs: np.ndarray) -> np.ndarray:
        """Overwrite the contiguous float64 ``rhs`` with ``K^-1 rhs``; returns
        it, and raises ``ValueError`` for a buffer LAPACK would copy."""
        # cho_solve_banded's float64 routine (dpbtrs), called directly (see
        # ADMMSolver._solve_kkt_in_place); same errors as the wrapper.
        # (ab, b, lower, ldab, overwrite_b), positionally: see there.
        x, info = self._pbtrs(self._cb, rhs, True, self._cb.shape[0], True)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}th leading minor not positive definite"
            )
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal pbtrs")
        return _solved_in_place(x, rhs, "pbtrs")


class StructuredADMMSolver(ADMMCore):
    """ADMM with block-tridiagonal linear algebra for MPO-shaped programs.

    Drop-in counterpart of :class:`~repro.solvers.qp.ADMMSolver` for
    problems described by an :class:`MPOStructure`; runs the identical
    ADMM iteration (shared :class:`~repro.solvers.qp.ADMMCore`) and lands
    on the same optimum, but never builds an ``(N*H, N*H)`` matrix.
    Constraint rows are implicitly ordered box-rows-then-sum-rows, matching
    :meth:`repro.core.constraints.AllocationConstraints.build_rows`.
    """

    def __init__(
        self,
        structure: MPOStructure,
        *,
        scale: bool = True,
        **core_kwargs,
    ) -> None:
        self.structure = structure
        N, H = structure.num_markets, structure.horizon
        super().__init__(N * H, N * H + H, **core_kwargs)
        self._N, self._H = N, H
        self._risk = structure.risk
        self._churn = float(structure.churn)
        self._coeffs = structure.churn_diag_coeffs()  # (H,)

        if scale:
            d, e_box, e_sum = self._ruiz_structured()
        else:
            d = np.ones((H, N))
            e_box = np.ones((H, N))
            e_sum = np.ones(H)
        self._d = d
        self._e_box = e_box
        self._e_sum = e_sum
        self._D = d.ravel()
        self._E = np.concatenate([e_box.ravel(), e_sum])

        # Cache the rho-independent and rho-scaled factorization pieces so a
        # rho retune is an O(H * N^2) reassembly: base = P̂ + sigma I per
        # block; the rho part is diag(box) + outer(sum_vec) per block.
        scaled_risk = d[:, :, None] * self._risk[None, :, :] * d[:, None, :]
        churn_diag = self._churn * self._coeffs[:, None] * d**2  # (H, N)
        self._base = scaled_risk
        idx = np.arange(N)
        self._base[:, idx, idx] += churn_diag + self.sigma
        self._box_diag = (e_box * d) ** 2  # (H, N)
        self._sum_vec = e_sum[:, None] * d  # (H, N)
        self._offdiag = (
            -self._churn * d[1:] * d[:-1] if H > 1 else np.zeros((0, N))
        )
        # The operators' constant factors and scratch.
        self._churn_coeffs = self._churn * self._coeffs[:, None]  # (H, 1)
        self._churn_d = self._churn * d  # (H, N)
        self._d_v = np.empty((H, N))
        self._scratch = np.empty((H, N))
        self._sum_rows = np.empty(H)
        self._init_core()

    # ------------------------------------------------------- equilibration
    def _ruiz_structured(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized Ruiz equilibration on the block representation.

        Mirrors the dense modified-Ruiz procedure — infinity-norm scaling of
        the stacked ``[[P, A'], [A, 0]]`` — but computes every row/column
        norm from ``(H, N)`` arrays and the two distinct ``|risk + c churn|``
        block variants, so cost per sweep is ``O(H * N^2)`` with no
        ``(N*H)^2`` temporaries.
        """
        N, H = self._N, self._H
        churn = self._churn
        abs_interior = np.abs(self._risk + 2.0 * churn * np.eye(N))
        abs_last = np.abs(self._risk + 1.0 * churn * np.eye(N))
        d = np.ones((H, N))
        e_box = np.ones((H, N))
        e_sum = np.ones(H)
        for _ in range(_RUIZ_ITERS):
            # Column norms of P̂: weighted block column maxima.
            col_P = np.empty((H, N))
            if H > 1:
                col_P[:-1] = np.max(
                    d[:-1, :, None] * abs_interior[None, :, :], axis=1
                )
                col_P[-1] = np.max(d[-1][:, None] * abs_last, axis=0)
            else:
                col_P[0] = np.max(d[0][:, None] * abs_last, axis=0)
            col_P *= d
            if H > 1 and churn > 0:
                cross = churn * d[1:] * d[:-1]  # |off-diagonal| entries
                col_P[:-1] = np.maximum(col_P[:-1], cross)
                col_P[1:] = np.maximum(col_P[1:], cross)
            # Column norms of Â: one box entry + one sum entry per variable.
            col_A = np.maximum(e_box * d, e_sum[:, None] * d)
            col_norm = np.maximum(col_P, col_A)
            d_step = 1.0 / np.sqrt(np.where(col_norm > 1e-12, col_norm, 1.0))
            # Row norms of Â.
            row_box = e_box * d
            row_sum = e_sum * np.max(d, axis=1)
            e_box_step = 1.0 / np.sqrt(np.where(row_box > 1e-12, row_box, 1.0))
            e_sum_step = 1.0 / np.sqrt(np.where(row_sum > 1e-12, row_sum, 1.0))
            d *= d_step
            e_box *= e_box_step
            e_sum *= e_sum_step
            d_drift = float(np.max(np.abs(d_step - 1.0), initial=0.0))
            e_drift = max(
                float(np.max(np.abs(e_box_step - 1.0), initial=0.0)),
                float(np.max(np.abs(e_sum_step - 1.0), initial=0.0)),
            )
            if d_drift < 1e-3 and e_drift < 1e-3:
                break
        return d, e_box, e_sum

    # ----------------------------------------------------- operator hooks
    # Each hook writes through (H, N) views of its flat operand and output,
    # with (H, N) and (H,) scratch the solver owns.
    def _apply_P_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        w = np.multiply(self._d, v.reshape(self._H, self._N), out=self._d_v)
        o = np.matmul(w, self._risk, out=out.reshape(self._H, self._N))
        o += np.multiply(self._churn_coeffs, w, out=self._scratch)
        o *= self._d
        if self._H > 1 and self._churn > 0:
            tail = self._scratch[1:]
            o[1:] -= np.multiply(self._churn_d[1:], w[:-1], out=tail)
            o[:-1] -= np.multiply(self._churn_d[:-1], w[1:], out=tail)
        return out

    def _apply_A_into(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        n = self.n
        w = np.multiply(self._d, v.reshape(self._H, self._N), out=self._d_v)
        np.multiply(self._e_box, w, out=out[:n].reshape(self._H, self._N))
        row_sums = w.sum(axis=1, out=out[n:])
        np.multiply(self._e_sum, row_sums, out=row_sums)
        return out

    def _apply_AT_into(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        n = self.n
        o = out.reshape(self._H, self._N)
        np.multiply(self._e_box, w[:n].reshape(self._H, self._N), out=o)
        np.multiply(self._e_sum, w[n:], out=self._sum_rows)
        o += self._sum_rows[:, None]
        o *= self._d
        return out

    def _factorize(self) -> None:
        rho = self._rho
        blocks = self._base.copy()
        idx = np.arange(self._N)
        blocks[:, idx, idx] += rho * self._box_diag
        blocks += rho * (
            self._sum_vec[:, :, None] * self._sum_vec[:, None, :]
        )
        self._factor = BlockTridiagFactor(blocks, self._offdiag)

    def _solve_kkt_in_place(self, rhs: np.ndarray) -> np.ndarray:
        return self._factor.solve_in_place(rhs)

    def _objective_orig(self, x: np.ndarray) -> float:
        xh = x.reshape(self._H, self._N)
        quad = float(np.einsum("ti,ij,tj->", xh, self._risk, xh))
        quad += float(self._churn * (self._coeffs[:, None] * xh**2).sum())
        if self._H > 1 and self._churn > 0:
            quad -= float(2.0 * self._churn * (xh[1:] * xh[:-1]).sum())
        return 0.5 * quad
