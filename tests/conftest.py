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
from repro.obs.slo import LatencyDigest
from repro.simulator.fluid import FluidEngine, FluidStep
from repro.simulator.metrics import LatencyRecorder, integer_masses
from repro.simulator.server import ServerPhase
from repro.workloads import wikipedia_like

# The runtime shape/sign checks at the hot seams start off in every
# process; the test suite runs with them on.
set_contracts(True)


REPO = Path(__file__).resolve().parents[1]

# The one static-analysis gate, exactly as CI runs it: every analyzer
# over src/ and tests/, fixtures excluded.
GATE_ARGS = ["src/", "tests/", "--exclude", "tests/fixtures"]


@dataclass(frozen=True)
class GateRun:
    code: int
    payload: dict
    elapsed_s: float


@pytest.fixture(scope="session")
def spotlint_gate():
    """The canonical gate, run once per session from the repo root."""
    from repro.devtools.check import main

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(REPO)
        start_s = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main([*GATE_ARGS, "--format", "json"])
        elapsed_s = time.perf_counter() - start_s
    return GateRun(code, json.loads(out.getvalue()), elapsed_s)


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def quick_result():
    """``quick_result(name)``: the claims experiment ``name`` run at its
    quick grid, once per session however many tests read it."""
    from repro.experiments.claims import EXPERIMENTS

    results = {}

    def get(name):
        if name not in results:
            experiment = EXPERIMENTS[name]
            results[name] = experiment.run(**experiment.quick)
        return results[name]

    return get


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


def mpo_program(N, H, seed):
    """An MPO-shaped program of ``N`` markets over ``H`` periods and a
    seeded sequence of six ``(q, l, u)`` solves, the fourth with its prices
    scaled by 1e4 so that the adaptive rho retunes."""
    from repro.solvers import MPOStructure

    rng = np.random.default_rng(seed)
    M = rng.normal(size=(N, N))
    M = M @ M.T / N + 0.1 * np.eye(N)
    structure = MPOStructure(N, H, risk=2.0 * 5.0 * M, churn=2.0 * 0.2)
    lower = np.concatenate([np.zeros(N * H), np.full(H, 1.0)])
    upper = np.concatenate([np.full(N * H, 1.5), np.full(H, 1.4)])
    calls = []
    for k in range(6):
        q = rng.normal(size=N * H)
        calls.append((1e4 * q if k == 3 else q, lower, upper))
    return structure, calls


class ReferenceADMMLoop:
    """The ADMM iteration as written before its per-iteration overhead was
    removed: a fresh array from every operation on ``x``, ``z`` and ``y``
    held apart, ``np.clip``, ``np.linalg.norm``, the infinite-bound masks
    rebuilt at every check, and every infeasibility test evaluated.  Mix in
    ahead of a backend, together with that backend's
    ``cho_solve``/``cho_solve_banded`` KKT solve; the optimized
    :meth:`repro.solvers.ADMMCore.solve` must match it bit for bit."""

    def solve(self, q, l, u):
        from repro.solvers import SolverResult, SolverStatus
        from repro.solvers.qp import _CHECK_EVERY, _SIGMA

        q = np.asarray(q, dtype=np.float64).ravel()
        l = np.asarray(l, dtype=np.float64).ravel()
        u = np.asarray(u, dtype=np.float64).ravel()
        qs = self._D * q
        ls = self._E * l
        us = self._E * u
        x, z, y = self._x, np.clip(self._z, ls, us), self._y
        sigma, alpha = _SIGMA, self.alpha
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


def assert_same_result(got, want):
    """Every ``SolverResult`` field but ``solve_time`` matches bit for bit."""
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


def run_pair(fast, ref, calls):
    """Solve each ``(q, l, u)`` on both solvers, warm-starting the next solve
    from the last ``x``.  Every ``SolverResult`` field but ``solve_time``
    must match bit for bit; returns ``fast``'s results."""
    results = []
    for q, l, u in calls:
        got, want = fast.solve(q, l, u), ref.solve(q, l, u)
        assert_same_result(got, want)
        results.append(got)
        fast.warm_start(got.x)
        ref.warm_start(got.x)
    return results


# The fluid step and its mass path as written before the fleet terms were
# cached and the per-server map was written lazily: the helpers, the
# FluidEngine methods, LatencyRecorder.record_served_mass and
# LatencyDigest.add_masses, verbatim but for decorators, annotations,
# docstrings and comments.
_REF_QUANTILE_EDGES = np.array(
    [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
     0.94, 0.97, 0.985, 0.9925, 0.9975, 1.0]
)
_REF_NODE_MASS = np.diff(_REF_QUANTILE_EDGES)
_REF_NODE_PROBS = (_REF_QUANTILE_EDGES[:-1] + _REF_QUANTILE_EDGES[1:]) / 2.0
_REF_NODE_EXP = -np.log1p(-_REF_NODE_PROBS)
_REF_RHO_MAX = 0.995


def _ref_warm_multiplier(now, serving_since, warmup_seconds, cold_multiplier):
    age = now - serving_since
    safe_warmup = np.maximum(warmup_seconds, 1e-12)
    frac = np.clip(age / safe_warmup, 0.0, 1.0)
    frac = np.where(warmup_seconds > 0, frac, np.where(age >= 0, 1.0, 0.0))
    return cold_multiplier + (1.0 - cold_multiplier) * frac


def _ref_split_offered(total, weights):
    denom = float(weights.sum())
    if denom <= 0:
        return np.zeros_like(weights)
    return total * (weights / denom)


def _ref_stochastic_wait(rho, service_eff, workers):
    r = np.clip(rho, 0.0, _REF_RHO_MAX)
    k = np.maximum(workers, 1.0)
    return (service_eff / k) * r ** np.sqrt(2.0 * (k + 1.0)) / (1.0 - r)


def _ref_response_nodes(wait, service_eff):
    return wait[:, None] + service_eff[:, None] * _REF_NODE_EXP[None, :]


class ReferenceFluidEngine(FluidEngine):
    """:class:`~repro.simulator.fluid.FluidEngine` with ``sync``, ``step``,
    ``withdraw``, ``deposit`` and ``total_mass`` as they were: the fleet
    terms recomputed and the map written back at every step.  The
    optimized engine must match it bit for bit."""

    def total_mass(self):
        return float(sum(self._mass.values()))

    def sync(self, servers, now):
        key = (id(servers), len(servers), self._sim.fleet_epoch)
        if key == self._synced:
            return 0.0
        self._synced = key
        order = []
        capacity = []
        workers = []
        service = []
        queue_limit = []
        warmup = []
        cold = []
        since = []
        draining = []
        failed = 0.0
        for sid in sorted(servers):
            server = servers[sid]
            if not server.alive:
                failed += self._mass.pop(sid, 0.0)
                continue
            order.append(sid)
            capacity.append(server.capacity_rps)
            workers.append(float(server.workers))
            service.append(server.service_time)
            queue_limit.append(server.queue_limit_seconds)
            warmup.append(server.warmup_seconds)
            cold.append(server.cold_multiplier)
            if server.serving_since is not None:
                since.append(server.serving_since)
            else:
                since.append(server.launched_at + server.boot_seconds)
            draining.append(server.phase is ServerPhase.DRAINING)
        for sid in sorted(set(self._mass) - set(order)):
            failed += self._mass.pop(sid)
        self._order = order
        self._cols = {
            "capacity": np.asarray(capacity, dtype=np.float64),
            "workers": np.asarray(workers, dtype=np.float64),
            "service": np.asarray(service, dtype=np.float64),
            "queue_limit": np.asarray(queue_limit, dtype=np.float64),
            "warmup": np.asarray(warmup, dtype=np.float64),
            "cold": np.asarray(cold, dtype=np.float64),
            "since": np.asarray(since, dtype=np.float64),
            "draining": np.asarray(draining, dtype=np.bool_),
            "mass": np.asarray(
                [self._mass.get(sid, 0.0) for sid in order],
                dtype=np.float64,
            ),
        }
        self.failed_total += failed
        return failed

    def step(self, now, dt, rate):
        if dt <= 0:
            raise ValueError("dt must be positive")
        offered = max(0.0, float(rate)) * dt
        self.offered_total += offered
        cols = self._cols
        if not self._order:
            self.dropped_total += offered
            return FluidStep(
                t=now, dt=dt, offered=offered, served=0.0, dropped=offered,
                latencies=np.zeros(0), weights=np.zeros(0),
                queue_mass=0.0, max_rho=0.0,
            )
        outcome = self._step_arrays(cols, now, dt, offered)
        new_mass = outcome["mass"]
        mass_list = new_mass.tolist()
        for sid, m in zip(self._order, mass_list):
            self._mass[sid] = m
        cols["mass"] = new_mass
        self.served_total += outcome["served"]
        self.dropped_total += outcome["dropped"]
        return FluidStep(
            t=now,
            dt=dt,
            offered=offered,
            served=outcome["served"],
            dropped=outcome["dropped"],
            latencies=outcome["latencies"],
            weights=outcome["weights"],
            queue_mass=float(new_mass.sum()),
            max_rho=outcome["max_rho"],
        )

    def _step_arrays(self, cols, now, dt, offered):
        mass = cols["mass"]
        mid = now + dt / 2.0
        mult = _ref_warm_multiplier(
            mid, cols["since"], cols["warmup"], cols["cold"]
        )
        serving = cols["since"] <= mid
        mu = np.where(serving, cols["capacity"] / mult, 0.0)
        potential = mu * dt
        mass_cap = cols["workers"] + mu * cols["queue_limit"]
        room = np.maximum(0.0, mass_cap - mass) + potential
        accepting = serving & ~cols["draining"]
        room = np.where(accepting, room, 0.0)
        weights = np.where(accepting, cols["capacity"], 0.0)
        offered_per = _ref_split_offered(offered, weights)
        admitted = np.minimum(offered_per, room)
        overflow = float((offered_per - admitted).sum())
        room_left = room - admitted
        retried = _ref_split_offered(overflow, room_left)
        retried = np.minimum(retried, room_left)
        admitted = admitted + retried
        dropped = max(0.0, offered - float(admitted.sum()))
        service_eff = cols["service"] * mult
        rho = np.where(
            potential > 0, admitted / np.maximum(potential, 1e-12), 0.0
        )
        backlog = np.where(
            mu > 0,
            np.maximum(0.0, mass - cols["workers"]) / np.maximum(mu, 1e-12),
            0.0,
        )
        wait = backlog + _ref_stochastic_wait(rho, service_eff, cols["workers"])
        total = mass + admitted
        response_mean = wait + service_eff
        residual = admitted * np.minimum(response_mean, dt) / dt
        served = np.minimum(total, potential)
        served = np.minimum(served, np.maximum(total - residual, 0.0))
        new_mass = total - served
        active = served > 1e-12
        nodes = _ref_response_nodes(wait[active], service_eff[active])
        node_w = served[active][:, None] * _REF_NODE_MASS[None, :]
        return {
            "mass": new_mass,
            "served": float(served.sum()),
            "dropped": dropped,
            "latencies": nodes.ravel(),
            "weights": node_w.ravel(),
            "max_rho": float(rho.max()) if rho.size else 0.0,
        }

    def withdraw(self):
        self._synced = None
        counts = {}
        for sid in sorted(self._mass):
            n = int(self._mass[sid])
            if n > 0:
                counts[sid] = n
                self._mass[sid] -= n
                self.withdrawn_total += n
        return counts

    def deposit(self, server_id, count):
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return
        self._synced = None
        self._mass[server_id] = self._mass.get(server_id, 0.0) + count
        self.deposited_total += count


class ReferenceLatencyDigest(LatencyDigest):
    """:meth:`~repro.obs.slo.LatencyDigest.add_masses` as it was."""

    def add_masses(self, latencies, weights):
        lat = np.asarray(latencies, dtype=np.float64).ravel()
        w = np.asarray(weights, dtype=np.float64).ravel()
        if lat.shape != w.shape:
            raise ValueError("latencies and weights must have the same shape")
        if lat.size == 0:
            return
        if float(lat.min()) < 0 or float(w.min()) < 0:
            raise ValueError("latencies and weights must be non-negative")
        idx = np.minimum(
            (lat / self.bin_width).astype(np.int64), self.num_bins
        )
        binned = np.bincount(idx, weights=w, minlength=self.num_bins + 1)
        for i in np.flatnonzero(binned):
            self.counts[i] += float(binned[i])
        mass = float(w.sum())
        if mass <= 0:
            return
        self.count += mass
        self.total += float((lat * w).sum())
        top = float(lat[w > 0].max())
        if top > self.max:
            self.max = top


class ReferenceLatencyRecorder(LatencyRecorder):
    """A default-digest :class:`~repro.simulator.metrics.LatencyRecorder`
    with ``record_served_mass`` and its digest's ``add_masses`` as they
    were: the nodes checked and summed twice."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.digest = ReferenceLatencyDigest()

    def record_served_mass(self, timestamp, latencies, weights):
        lat = np.asarray(latencies, dtype=np.float64).ravel()
        w = np.asarray(weights, dtype=np.float64).ravel()
        if lat.shape != w.shape:
            raise ValueError("latencies and weights must have the same shape")
        if lat.size == 0:
            return
        if float(lat.min()) < 0 or float(w.min()) < 0:
            raise ValueError("latencies and weights must be non-negative")
        mass = float(w.sum())
        if mass <= 0:
            return
        timestamp = float(timestamp)
        self._served += mass
        self._late += float(w[lat > self.slo_threshold].sum())
        self.digest.add_masses(lat, w)
        if self.keep_raw:
            counts = integer_masses(w)
            expanded = np.repeat(lat, counts).tolist()
            self.latencies.extend(expanded)
            self.timestamps.extend([timestamp] * len(expanded))
        if self.engine is not None:
            self.engine.record_mass(timestamp, lat, w)


def server_mass(fluid):
    """A fluid engine's queue mass per server id, read from its mass
    column: the truth between column rebuilds."""
    return dict(zip(fluid._order, fluid._cols["mass"].tolist()))


@pytest.fixture
def bench_stubs(monkeypatch):
    """Stub every measurement ``repro bench`` takes with a value inside
    its bound; a test pushes one entry past its bound.  ``seen`` collects
    the keyword arguments each measurement was called with."""
    from repro.bench import mpo, sim
    from repro.bench.report import SCHEMA_MPO, SCHEMA_SIM

    def cluster(engine, ips):
        return {
            "engine": engine,
            "peak_rps": 2e4,
            "servers": 250,
            "sim_seconds": 4.0,
            "intervals_per_sec_median": ips,
            "tier_steps": {"fluid": 0, "request": 4},
            "p99_s": 0.5,
        }

    stubs = {
        "mpo": {
            "schema": SCHEMA_MPO,
            "config": {},
            "cells": [
                {
                    "markets": 12,
                    "horizon": 4,
                    "backend": "admm",
                    "cold_ms": 1.0,
                    "warm_median_ms": 10.0,
                    "warm_max_ms": 12.0,
                }
            ],
            "speedups": [
                {
                    "markets": 48,
                    "horizon": 6,
                    "variables": 288,
                    "warm_speedup": 3.0,
                    "cold_speedup": 4.0,
                    "objective_gap": 0.0,
                }
            ],
        },
        "sim": {
            "schema": SCHEMA_SIM,
            "config": {},
            "cells": [cluster("request", 1.0), cluster("hybrid", 100.0)],
        },
        "accuracy": [
            {
                "peak_rps": 600.0,
                "servers": 10,
                "revoke": True,
                "p99_hybrid_s": 0.5,
                "p99_request_s": 0.5,
                "rel_error": 0.05,
                "tier_steps": {"fluid": 100, "request": 20},
            }
        ],
        "smoke": {
            "hybrid_intervals_per_sec": 4000.0,
            "request_intervals_per_sec": 100.0,
            "speedup": 40.0,
            "tier_steps": {"fluid": 100, "request": 20},
        },
        "sweep": {
            "serial_seconds": 4.0,
            "parallel_seconds": 1.0,
            "speedup": 4.0,
            "mismatches": [],
            "workers": 4,
            "cpus": 4,
        },
        "sessions": {
            "sessions": [1000, 10000],
            "draw_us": [4.0, 4.4],
            "ratio": 1.1,
        },
        "seen": {},
    }

    def stub(module, name, key):
        def fake(**kwargs):
            stubs["seen"][name] = kwargs
            return stubs[key]

        monkeypatch.setattr(module, name, fake)

    stub(mpo, "bench_mpo", "mpo")
    stub(sim, "bench_sim", "sim")
    stub(sim, "check_hybrid_accuracy", "accuracy")
    stub(sim, "check_hybrid_speedup", "smoke")
    stub(sim, "check_parallel_speedup", "sweep")
    stub(sim, "check_session_scaling", "sessions")
    return stubs
