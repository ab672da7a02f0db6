"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.devtools.contracts import set_contracts
from repro.markets import default_catalog, generate_market_dataset
from repro.workloads import wikipedia_like

# The runtime contract layer (shape/sign/unit checks at the hot seams) is
# always active under the test suite, regardless of SPOTWEB_CONTRACTS.
set_contracts(True)


REPO = Path(__file__).resolve().parents[1]

# The one static-analysis gate, exactly as CI and the baseline workflow
# run it: every analyzer over src/ and tests/, fixtures excluded.
GATE_ARGS = ["src/", "tests/", "--exclude", "tests/fixtures"]


@dataclass(frozen=True)
class GateRun:
    code: int
    payload: dict
    elapsed_s: float


@pytest.fixture(scope="session")
def spotlint_gate():
    """The canonical gate, run cold once per session from the repo root
    (baseline fingerprints hash repo-relative paths)."""
    from repro.devtools.check import main

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(REPO)
        start_s = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main([*GATE_ARGS, "--no-cache", "--format", "json"])
        elapsed_s = time.perf_counter() - start_s
    return GateRun(code, json.loads(out.getvalue()), elapsed_s)


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def small_markets(catalog):
    """Six spot markets — enough for portfolio structure, fast to solve."""
    return catalog.spot_markets(6)


@pytest.fixture(scope="session")
def small_dataset(small_markets):
    """One week of hourly market data over the six markets."""
    return generate_market_dataset(small_markets, intervals=7 * 24, seed=123)


@pytest.fixture(scope="session")
def wiki_week():
    """One week of the Wikipedia-like workload at a 2000 req/s peak."""
    return wikipedia_like(1, seed=123).scaled(2000.0)


def random_feasible_qp(rng: np.random.Generator, n: int, m: int):
    """A random strictly convex QP with a guaranteed-feasible box."""
    from repro.solvers import QPProblem

    L = rng.normal(size=(n, n))
    P = L @ L.T + 0.1 * np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    Ax0 = A @ x0
    slack_lo = rng.uniform(0.05, 2.0, size=m)
    slack_hi = rng.uniform(0.05, 2.0, size=m)
    return QPProblem(P, q, A, Ax0 - slack_lo, Ax0 + slack_hi)


class ReferenceADMMLoop:
    """The ADMM iteration as written before its per-iteration overhead was
    removed: ``np.clip``, ``np.linalg.norm`` and the infinite-bound masks
    rebuilt at every check.  Mix in ahead of a backend, together with that
    backend's ``cho_solve``/``cho_solve_banded`` KKT solve; the optimized
    :meth:`repro.solvers.ADMMCore.solve` must match it bit for bit."""

    def solve(self, q, l, u):
        from repro.solvers import SolverResult, SolverStatus
        from repro.solvers.qp import _CHECK_EVERY

        q = np.asarray(q, dtype=np.float64).ravel()
        l = np.asarray(l, dtype=np.float64).ravel()
        u = np.asarray(u, dtype=np.float64).ravel()
        qs = self._D * q
        ls = self._E * l
        us = self._E * u
        x, z, y = self._x, np.clip(self._z, ls, us), self._y
        sigma, alpha = self.sigma, self.alpha
        status = SolverStatus.MAX_ITERATIONS
        r_prim = r_dual = float("inf")
        x_prev_check, y_prev_check = x.copy(), y.copy()
        it = 0
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
                certificate = self._reference_certificate(
                    x - x_prev_check, y - y_prev_check, qs, ls, us
                )
                if certificate is not None:
                    status = certificate
                    break
                x_prev_check, y_prev_check = x.copy(), y.copy()
                if self.adaptive_rho:
                    self._maybe_retune_rho(r_prim, eps_prim, r_dual, eps_dual)

        self._x, self._z, self._y = x, z, y
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
        )

    def _reference_certificate(self, dx, dy, qs, ls, us, eps=1e-5):
        from repro.solvers import SolverStatus

        norm_dy = float(np.linalg.norm(dy, np.inf))
        if norm_dy > eps:
            dyn = dy / norm_dy
            dy_pos = np.maximum(dyn, 0.0)
            dy_neg = np.minimum(dyn, 0.0)
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


def run_pair(fast, ref, calls):
    """Solve each ``(q, l, u)`` on both solvers, warm-starting the next solve
    from the last ``x``.  Every ``SolverResult`` field but ``solve_time``
    must match bit for bit; returns ``fast``'s results."""
    results = []
    for q, l, u in calls:
        got, want = fast.solve(q, l, u), ref.solve(q, l, u)
        assert got.x.tobytes() == want.x.tobytes()
        assert got.y.tobytes() == want.y.tobytes()
        assert (got.objective, got.status, got.iterations) == (
            want.objective,
            want.status,
            want.iterations,
        )
        assert (got.primal_residual, got.dual_residual) == (
            want.primal_residual,
            want.dual_residual,
        )
        results.append(got)
        fast.warm_start(got.x)
        ref.warm_start(got.x)
    return results
