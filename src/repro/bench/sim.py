"""Simulator throughput benchmarks (intervals per second).

Two families of cells:

- **interval** cells — :meth:`repro.simulator.CostSimulator.run` under a
  deliberately trivial policy (fixed uniform counts, no optimizer) so the
  measurement tracks the interval loop itself: revocation sampling,
  billing, shortfall accounting.
- **cluster-engine** cells — the request-level testbed
  (:class:`~repro.simulator.hybrid.HybridClusterSimulation`) under a
  revocation scenario, once per engine.  The ``request`` cell is the
  pure-DES reference whose intervals/second the hybrid engine must beat
  by :data:`~repro.bench.report.HYBRID_SPEEDUP_FLOOR`; the ``hybrid``
  cells show the two-tier engine holding thousands of intervals/second
  at 500k RPS ("million-user" traffic) where the request tier would
  need hours.

Four checks that ``python -m repro bench`` gates run beside the cells
and are printed, not recorded: the two-cell P99 accuracy grid and the
2k req/s speedup smoke cell (both engines, each built by the same
warm-fleet function as the cells), the Table-1 sweep timed serial
against a process pool, and the cost of the request tier's session draw
at two live-session counts.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bench.report import SCHEMA_SIM
from repro.markets import generate_market_dataset, market_universe
from repro.simulator import CostSimulator
from repro.simulator.cluster import ClusterConfig, ClusterSimulation
from repro.simulator.hybrid import HybridClusterSimulation, HybridConfig
from repro.solvers.qp import lapack
from repro.workloads import wikipedia_like

__all__ = [
    "ACCURACY_GRID",
    "PARALLEL_WORKERS",
    "bench_sim",
    "bench_cluster",
    "check_hybrid_accuracy",
    "check_hybrid_speedup",
    "check_parallel_speedup",
    "check_session_scaling",
    "SESSION_COUNTS",
    "UniformCountsPolicy",
]

#: Quick accuracy grid: small enough that the request-level reference is
#: cheap, varied enough to cover both steady state and a revocation with
#: its fidelity window.  Post-kill utilization stays below saturation —
#: at rho >= 1 the tail is unstable and a relative P99 comparison only
#: measures noise.
ACCURACY_GRID = (
    {
        "peak_rps": 600.0,
        "servers": 10,
        "capacity_rps": 100.0,
        "sim_seconds": 180.0,
        "revoke": True,
    },
    {
        "peak_rps": 750.0,
        "servers": 10,
        "capacity_rps": 100.0,
        "sim_seconds": 180.0,
        "revoke": False,
    },
)

#: Pool size of the parallel-sweep check: the four cores of a CI runner.
PARALLEL_WORKERS = 4

#: Live-session counts of the session-draw check, 10x apart; the larger
#: is the window of live sessions a cluster keeps.
SESSION_COUNTS = (1_000, 10_000)


class UniformCountsPolicy:
    """Constant, optimizer-free policy: the same counts every interval."""

    def __init__(self, counts: np.ndarray) -> None:
        self.counts = np.asarray(counts, dtype=np.int64)

    def decide(
        self,
        t: int,
        observed_rps: float,
        prices: np.ndarray,
        failure_probs: np.ndarray,
    ) -> np.ndarray:
        return self.counts


def _cluster_cell(
    engine: str,
    *,
    peak_rps: float,
    servers: int,
    capacity_rps: float,
    sim_seconds: float,
    repeats: int,
    seed: int,
    revoke: bool,
) -> dict:
    """Time one engine on the shared revocation scenario.

    Every repeat builds a fresh fleet (the DES is not resettable), runs it
    warm (servers booted and past cache warm-up before the clock starts),
    and — when ``revoke`` is set — issues one short-warning revocation at
    20% of the horizon so the hybrid engine pays for a real fidelity
    window rather than coasting through a steady-state run.
    """
    warning_seconds = 2.0
    rates: list[float] = []
    cluster = None
    for _ in range(repeats):
        config = ClusterConfig(seed=seed, warning_seconds=warning_seconds)
        cluster = HybridClusterSimulation(
            config,
            engine=engine,
            hybrid=HybridConfig(settle_seconds=2.0),
            keep_raw=False,
        )
        for _server in range(servers):
            cluster.add_server(capacity_rps, boot_seconds=0.0)
        # Warm the fleet before timing: past boot and cache warm-up the
        # scenario starts from the steady state both engines agree on.
        cluster.sim.advance(config.warmup_seconds + 1.0)
        if revoke:
            cluster.schedule_revocation(3, cluster.sim.now + 0.2 * sim_seconds)
        t0_s = time.perf_counter()
        cluster.run(sim_seconds, peak_rps)
        elapsed = time.perf_counter() - t0_s
        chunks = sum(cluster.tier_steps.values())
        rates.append(chunks / elapsed)
    return {
        "engine": engine,
        "peak_rps": float(peak_rps),
        "servers": int(servers),
        "sim_seconds": float(sim_seconds),
        "intervals": int(sum(cluster.tier_steps.values())),
        "tier_steps": {k: int(v) for k, v in sorted(cluster.tier_steps.items())},
        "intervals_per_sec_median": float(np.median(rates)),
        "intervals_per_sec_max": float(np.max(rates)),
        "served": float(cluster.recorder.served),
        "p99_s": float(cluster.recorder.percentile(99.0)),
    }


def bench_cluster(
    *,
    peak_rps: float = 20_000.0,
    servers: int = 250,
    capacity_rps: float = 100.0,
    request_seconds: float = 8.0,
    hybrid_seconds: float = 300.0,
    huge_peak_rps: float = 500_000.0,
    huge_servers: int = 550,
    huge_capacity_rps: float = 1100.0,
    huge_seconds: float = 120.0,
    include_huge: bool = True,
    repeats: int = 3,
    seed: int = 0,
) -> list[dict]:
    """Cluster-engine cells: request reference, hybrid, and the 500k cell.

    The request cell uses a short horizon — its intervals/second is a
    per-wall-second property, roughly independent of duration — while the
    hybrid cell needs a long one so the fixed-cost fidelity window is
    amortized the way production runs amortize it.  The huge cell is
    hybrid-only and steady-state: the point is that a half-million-RPS
    fleet simulates at fluid-tier speed at all.
    """
    cells = [
        _cluster_cell(
            "request",
            peak_rps=peak_rps,
            servers=servers,
            capacity_rps=capacity_rps,
            sim_seconds=request_seconds,
            repeats=repeats,
            seed=seed,
            revoke=True,
        ),
        _cluster_cell(
            "hybrid",
            peak_rps=peak_rps,
            servers=servers,
            capacity_rps=capacity_rps,
            sim_seconds=hybrid_seconds,
            repeats=repeats,
            seed=seed,
            revoke=True,
        ),
    ]
    if include_huge:
        cells.append(
            _cluster_cell(
                "hybrid",
                peak_rps=huge_peak_rps,
                servers=huge_servers,
                capacity_rps=huge_capacity_rps,
                sim_seconds=huge_seconds,
                repeats=repeats,
                seed=seed,
                revoke=False,
            )
        )
    return cells


def bench_sim(
    *,
    num_markets: int = 12,
    weeks: int = 2,
    peak_rps: float = 20_000.0,
    repeats: int = 3,
    seed: int = 0,
    cluster_repeats: int = 3,
    request_seconds: float = 8.0,
    hybrid_seconds: float = 300.0,
    include_huge: bool = True,
) -> dict:
    """Benchmark simulator throughput; returns a ``SCHEMA_SIM`` dict."""
    markets = market_universe(num_markets)
    intervals = weeks * 7 * 24
    dataset = generate_market_dataset(markets, intervals=intervals, seed=seed)
    trace = wikipedia_like(weeks, seed=seed).scaled(peak_rps)
    sim = CostSimulator(dataset, trace, seed=seed)
    # Enough servers to carry the peak, spread uniformly.
    per_market = int(np.ceil(peak_rps / dataset.capacities.sum())) + 1
    policy = UniformCountsPolicy(np.full(num_markets, per_market))

    rates = []
    for _ in range(repeats):
        t0_s = time.perf_counter()
        report = sim.run(policy, name="uniform")
        elapsed = time.perf_counter() - t0_s
        rates.append(sim.horizon_intervals / elapsed)
    cells = [
        {
            "policy": "uniform",
            "intervals": int(sim.horizon_intervals),
            "markets": num_markets,
            "intervals_per_sec_median": float(np.median(rates)),
            "intervals_per_sec_max": float(np.max(rates)),
            "total_cost": float(report.total_cost),
        }
    ]
    cells.extend(
        bench_cluster(
            peak_rps=peak_rps,
            request_seconds=request_seconds,
            hybrid_seconds=hybrid_seconds,
            include_huge=include_huge,
            repeats=cluster_repeats,
            seed=seed,
        )
    )
    return {
        "schema": SCHEMA_SIM,
        "config": {
            "num_markets": num_markets,
            "weeks": weeks,
            "peak_rps": peak_rps,
            "repeats": repeats,
            "cluster_repeats": cluster_repeats,
            "request_seconds": request_seconds,
            "hybrid_seconds": hybrid_seconds,
            "include_huge": include_huge,
            "seed": seed,
        },
        "cells": cells,
    }


def check_hybrid_accuracy(
    *, scenarios: tuple = ACCURACY_GRID, seed: int = 0
) -> list[dict]:
    """Hybrid-vs-request P99 agreement over the quick grid.

    Returns one entry per cell with both engines' P99 (digest estimate)
    and the relative error; :func:`repro.bench.report.gate_failures`
    applies the tolerance.
    """
    results = []
    for scenario in scenarios:
        hybrid = _cluster_cell("hybrid", repeats=1, seed=seed, **scenario)
        request = _cluster_cell("request", repeats=1, seed=seed, **scenario)
        results.append(
            {
                "peak_rps": scenario["peak_rps"],
                "servers": scenario["servers"],
                "revoke": scenario["revoke"],
                "p99_hybrid_s": hybrid["p99_s"],
                "p99_request_s": request["p99_s"],
                "rel_error": abs(hybrid["p99_s"] - request["p99_s"])
                / request["p99_s"],
                "tier_steps": hybrid["tier_steps"],
            }
        )
    return results


def check_hybrid_speedup(
    *,
    peak_rps: float = 2000.0,
    servers: int = 25,
    sim_seconds: float = 120.0,
    seed: int = 0,
) -> dict:
    """Perf smoke: sim-intervals/sec, hybrid vs request, one shared cell."""
    scenario = dict(
        peak_rps=peak_rps,
        servers=servers,
        capacity_rps=100.0,
        sim_seconds=sim_seconds,
        repeats=1,
        seed=seed,
        revoke=True,
    )
    hybrid = _cluster_cell("hybrid", **scenario)
    request = _cluster_cell("request", **scenario)
    ips_hybrid = hybrid["intervals_per_sec_median"]
    ips_request = request["intervals_per_sec_median"]
    return {
        "hybrid_intervals_per_sec": ips_hybrid,
        "request_intervals_per_sec": ips_request,
        "speedup": ips_hybrid / ips_request if ips_request > 0 else 0.0,
        "tier_steps": hybrid["tier_steps"],
    }


def check_parallel_speedup(
    *,
    reps: int = 4,
    num_markets: int = 6,
    seed: int = 0,
    max_workers: int = PARALLEL_WORKERS,
) -> dict:
    """Time the Table-1 sweep serial vs parallel; report speedup and mismatches.

    Returns ``{"serial_seconds", "parallel_seconds", "speedup",
    "mismatches", "workers", "cpus"}`` where ``mismatches`` lists every
    ``(policy, seed)`` key whose parallel total cost differs from the
    serial one (must be empty: the pool fans out pure cells, so results
    are bit-identical by design).
    """
    from repro.experiments.table1 import run_table1_costs

    kwargs = dict(reps=reps, num_markets=num_markets, weeks=1, seed=seed)
    # Load scipy.linalg outside both clocks: the serial leg would time its
    # import, which the parallel leg's forked workers inherit.
    lapack()
    t0_s = time.perf_counter()
    serial = run_table1_costs(workers=1, **kwargs)
    t_serial = time.perf_counter() - t0_s
    t0_s = time.perf_counter()
    par = run_table1_costs(workers=max_workers, **kwargs)
    t_par = time.perf_counter() - t0_s
    mismatches = [
        key
        for key, report in serial.reports.items()
        if par.reports[key].total_cost != report.total_cost  # spotlint: disable=SW003
    ]
    return {
        "serial_seconds": t_serial,
        "parallel_seconds": t_par,
        "speedup": t_serial / t_par if t_par > 0 else float("inf"),
        "mismatches": mismatches,
        "workers": max_workers,
        "cpus": os.cpu_count() or 1,
    }


def check_session_scaling(
    *, draws: int = 5_000, repeats: int = 5, seed: int = 0
) -> dict:
    """Cost of one session draw at 10,000 live sessions over 1,000.

    ``ClusterSimulation._session_for_request`` gives each arrival a new
    session or a uniform draw among the live ones; one index draw costs
    the same at any count, so the ratio reads ~1, while a draw over a
    list of the live sessions grows with them.  Each cluster first opens
    its sessions (new-session probability 1), then times ``draws``
    returning draws (probability 0, so the count stays put); the cost is
    the median of ``repeats`` timings.  Both counts run in this process,
    their timings alternating, so host speed cancels out of the ratio.
    """
    sessions = []
    for live in SESSION_COUNTS:
        config = ClusterConfig(seed=seed, new_session_probability=1.0)
        cluster = ClusterSimulation(config, keep_raw=False)
        for _ in range(live):
            cluster._session_for_request()
        config.new_session_probability = 0.0
        sessions.append(cluster._session_for_request)
    times: list[list[float]] = [[] for _ in SESSION_COUNTS]
    for _ in range(repeats):
        for draw, timed in zip(sessions, times):
            t0_s = time.perf_counter()
            for _ in range(draws):
                draw()
            timed.append(time.perf_counter() - t0_s)
    draw_us = [float(np.median(timed)) / draws * 1e6 for timed in times]
    return {
        "sessions": list(SESSION_COUNTS),
        "draw_us": draw_us,
        "ratio": draw_us[1] / draw_us[0],
    }
