"""Test oracles for the QP solvers: independent code to check them against.

- :mod:`oracles.kkt` — KKT residuals of a candidate primal/dual pair;
- :mod:`oracles.lp` — ``solve_lp``, linear programs through
  ``scipy.optimize.linprog`` (HiGHS);
- :mod:`oracles.reference` — ``solve_qp_reference``, scipy ``trust-constr``;
- :mod:`oracles.active_set` — ``solve_qp_active_set``, an exact primal
  active-set method.

No simulation calls them, so they live with the tests; pytest puts this
directory on ``sys.path``, and tests import them as ``oracles.<module>``.
"""

__all__ = ["active_set", "kkt", "lp", "reference"]
