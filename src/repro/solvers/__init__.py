"""Convex optimization substrate for SpotWeb.

The paper solves its multi-period portfolio program with CVXPY + the SCS
operator-splitting solver.  This package provides the equivalent machinery
built from scratch on NumPy/SciPy:

- :mod:`repro.solvers.qp` — an OSQP-style ADMM solver for quadratic programs
  of the form ``min 1/2 x'Px + q'x  s.t.  l <= Ax <= u`` with warm starting
  and cached factorizations (the receding-horizon loop re-solves the same
  problem with updated ``q``/``l``/``u`` every interval).
- :mod:`repro.solvers.structured` — a block-tridiagonal KKT fast path for
  MPO-shaped programs (per-period blocks coupled only by the churn term),
  O(H·N³) factorization instead of the dense path's O((N·H)³).
- :mod:`repro.solvers.kkt` — KKT residual checks; only tests use them
  (the solver's own termination criteria live in :mod:`repro.solvers.qp`).

Three test oracles are not imported here, because no simulation calls
them and two of them load ``scipy.optimize``; import them from their
modules: :mod:`repro.solvers.lp` (``solve_lp``, linear programs through
``scipy.optimize.linprog``), :mod:`repro.solvers.reference`
(``solve_qp_reference``, scipy ``trust-constr``) and
:mod:`repro.solvers.active_set` (``solve_qp_active_set``, an exact
primal active-set method).
"""

from repro.solvers.result import SolverResult, SolverStatus
from repro.solvers.qp import ADMMCore, ADMMSolver, QPProblem, solve_qp
from repro.solvers.kkt import kkt_residuals, check_kkt
from repro.solvers.structured import (
    BlockTridiagFactor,
    MPOStructure,
    StructuredADMMSolver,
)

__all__ = [
    "SolverResult",
    "SolverStatus",
    "ADMMCore",
    "ADMMSolver",
    "QPProblem",
    "solve_qp",
    "kkt_residuals",
    "check_kkt",
    "BlockTridiagFactor",
    "MPOStructure",
    "StructuredADMMSolver",
]
