"""MPO solver latency benchmark: (markets, horizon, backend) grid.

The protocol mirrors :mod:`repro.experiments.fig7b_scalability` (and real
deployment): construct the optimizer once per cell, time the first call
(cold: construction + first KKT factorization + solve), then time
``repeats`` warm re-solves with fresh prices/targets, warm-started from the
previous plan.  Every backend sees the identical target stream, so the
final objectives are directly comparable and their gap measures backend
agreement, not input drift.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.report import SCHEMA_MPO
from repro.core import CostModel, MPOOptimizer
from repro.experiments.fig7b_scalability import _replicated_markets
from repro.markets import generate_market_dataset
from repro.units import MS_PER_SECOND

__all__ = ["bench_mpo"]


def _bench_cell(
    markets: list,
    dataset,
    covariance: np.ndarray,
    horizon: int,
    backend: str,
    repeats: int,
    seed: int,
) -> dict:
    rng = np.random.default_rng(seed)
    optimizer = MPOOptimizer(
        markets,
        horizon=horizon,
        cost_model=CostModel(churn_penalty=0.2),
        backend=backend,
    )

    def inputs(row: int, target: float):
        return (
            np.full(horizon, target),
            np.tile(dataset.prices[row], (horizon, 1)),
            np.tile(dataset.failure_probs[row], (horizon, 1)),
            covariance,
        )

    t0_s = time.perf_counter()
    optimizer.optimize(*inputs(0, 10_000.0))
    cold = time.perf_counter() - t0_s

    samples = []
    fractions = None
    objective = float("nan")
    for r in range(repeats):
        target = 10_000.0 * float(rng.uniform(0.8, 1.2))
        t0_s = time.perf_counter()
        res = optimizer.optimize(
            *inputs(r + 1, target), current_fractions=fractions
        )
        samples.append(time.perf_counter() - t0_s)
        fractions = res.plan.first.fractions
        objective = float(res.solver.objective)
    return {
        "markets": len(markets),
        "horizon": horizon,
        "backend": backend,
        "resolved_backend": optimizer.resolved_backend,
        "variables": len(markets) * horizon,
        "cold_ms": MS_PER_SECOND * cold,
        "warm_median_ms": MS_PER_SECOND * float(np.median(samples)),
        "warm_max_ms": MS_PER_SECOND * float(np.max(samples)),
        "final_objective": objective,
    }


def _speedups(cells: list[dict], baseline: str, fast: str) -> list[dict]:
    """Pair ``fast`` against ``baseline`` cells on the same (N, H) point."""
    by_key: dict[tuple[int, int, str], dict] = {
        (c["markets"], c["horizon"], c["backend"]): c for c in cells
    }
    out = []
    for cell in cells:
        if cell["backend"] != fast:
            continue
        base = by_key.get((cell["markets"], cell["horizon"], baseline))
        if base is None:
            continue
        out.append(
            {
                "markets": cell["markets"],
                "horizon": cell["horizon"],
                "variables": cell["variables"],
                "warm_speedup": base["warm_median_ms"]
                / max(cell["warm_median_ms"], 1e-9),
                "cold_speedup": base["cold_ms"] / max(cell["cold_ms"], 1e-9),
                "objective_gap": abs(
                    base["final_objective"] - cell["final_objective"]
                ),
            }
        )
    return out


def bench_mpo(
    *,
    market_counts: tuple[int, ...] = (12, 48, 144),
    horizons: tuple[int, ...] = (4, 10),
    backends: tuple[str, ...] = ("admm", "structured"),
    repeats: int = 5,
    seed: int = 0,
) -> dict:
    """Benchmark MPO solves over the grid; returns a ``SCHEMA_MPO`` dict."""
    cells = []
    for nm in market_counts:
        markets = _replicated_markets(nm)
        dataset = generate_market_dataset(
            markets, intervals=repeats + 2, seed=seed
        )
        covariance = dataset.event_covariance()
        for h in horizons:
            for backend in backends:
                cells.append(
                    _bench_cell(
                        markets, dataset, covariance, h, backend, repeats, seed
                    )
                )
    speedups = (
        _speedups(cells, "admm", "structured")
        if {"admm", "structured"} <= set(backends)
        else []
    )
    return {
        "schema": SCHEMA_MPO,
        "config": {
            "market_counts": list(market_counts),
            "horizons": list(horizons),
            "backends": list(backends),
            "repeats": repeats,
            "seed": seed,
        },
        "cells": cells,
        "speedups": speedups,
    }
