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

The solver's own termination criteria live in :mod:`repro.solvers.qp`.
The independent solvers and KKT checks the tests compare these against
live with the tests (``tests/oracles``), since no simulation calls them.
"""

from repro.solvers.result import SolverResult, SolverStatus
from repro.solvers.qp import ADMMCore, ADMMSolver, QPProblem, solve_qp
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
    "BlockTridiagFactor",
    "MPOStructure",
    "StructuredADMMSolver",
]
