"""Figure 7(b): optimizer scalability.

Time for one receding-horizon portfolio computation as the number of markets
and the look-ahead horizon grow.  The paper reports sub-second to ~5 s for
up to hundreds of markets, scaling sub-linearly (doubling markets does not
double solve time) — the property that makes SpotWeb usable where
Tributary's exponential-time selection is not.

The timing protocol mirrors deployment: the solver for a given (markets,
horizon) pair is constructed once (factorization cached) and then re-solved
with fresh prices/targets each interval, warm-started from the previous
solution.  Two columns are reported per cell: the *cold-start* time (first
optimize call — solver construction + first factorization + solve) and the
steady-state warm re-solve time, so factorization cost and re-solve cost
are visible separately.  :func:`mpo_cells` is that protocol over a (markets,
horizon, backend) grid; ``repro bench`` times its backends with it too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import CostModel, MPOOptimizer
from repro.markets import generate_market_dataset, market_universe
from repro.solvers.qp import lapack
from repro.units import MS_PER_SECOND

__all__ = ["Fig7bResult", "mpo_cells", "run_fig7b", "format_fig7b"]


@dataclass
class Fig7bResult:
    """Per-cell timings.

    ``times[(num_markets, horizon)]`` — warm re-solve seconds (median, max);
    ``cold[(num_markets, horizon)]`` — first-solve seconds (construction +
    first factorization + solve).
    """

    times: dict[tuple[int, int], tuple[float, float]] = field(default_factory=dict)
    cold: dict[tuple[int, int], float] = field(default_factory=dict)
    market_counts: tuple[int, ...] = ()
    horizons: tuple[int, ...] = ()


def _time_cell(
    markets: list,
    dataset,
    covariance: np.ndarray,
    horizon: int,
    backend: str,
    repeats: int,
    seed: int,
) -> dict:
    """One cold solve, then ``repeats`` warm re-solves with fresh targets."""
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

    lapack()  # scipy.linalg's import is no part of a cold solve
    t0_s = time.perf_counter()
    optimizer.optimize(*inputs(0, 10_000.0))
    cold = time.perf_counter() - t0_s

    samples = []
    iterations = 0
    iterate_s = 0.0
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
        iterations += res.solver.iterations
        iterate_s += res.solver.solve_time
    return {
        "markets": len(markets),
        "horizon": horizon,
        "backend": backend,
        "resolved_backend": optimizer.resolved_backend,
        "variables": len(markets) * horizon,
        "cold_ms": MS_PER_SECOND * cold,
        "warm_median_ms": MS_PER_SECOND * float(np.median(samples)),
        "warm_max_ms": MS_PER_SECOND * float(np.max(samples)),
        # The warm solves' work and its unit cost, so a moved median shows
        # whether an iteration got dearer or the iteration count grew.
        "warm_iters_mean": iterations / repeats,
        "warm_us_per_iter": 1e6 * iterate_s / max(iterations, 1),
        "final_objective": objective,
    }


def mpo_cells(
    *,
    market_counts: tuple[int, ...],
    horizons: tuple[int, ...],
    backends: tuple[str, ...],
    repeats: int,
    seed: int,
) -> list[dict]:
    """Time every (markets, horizon, backend) cell of the grid.

    Every backend of a (markets, horizon) point sees the identical target
    stream, so their final objectives are directly comparable.
    """
    cells = []
    for nm in market_counts:
        markets = market_universe(nm)
        dataset = generate_market_dataset(
            markets, intervals=repeats + 2, seed=seed
        )
        covariance = dataset.event_covariance()
        for h in horizons:
            for backend in backends:
                cells.append(
                    _time_cell(
                        markets, dataset, covariance, h, backend, repeats, seed
                    )
                )
    return cells


def run_fig7b(
    *,
    market_counts: tuple[int, ...] = (9, 18, 36, 72, 144),
    horizons: tuple[int, ...] = (2, 4, 6, 10),
    repeats: int = 5,
    seed: int = 0,
) -> Fig7bResult:
    result = Fig7bResult(market_counts=market_counts, horizons=horizons)
    cells = mpo_cells(
        market_counts=market_counts,
        horizons=horizons,
        backends=("auto",),
        repeats=repeats,
        seed=seed,
    )
    for cell in cells:
        key = (cell["markets"], cell["horizon"])
        result.cold[key] = cell["cold_ms"] / MS_PER_SECOND
        result.times[key] = (
            cell["warm_median_ms"] / MS_PER_SECOND,
            cell["warm_max_ms"] / MS_PER_SECOND,
        )
    return result


def format_fig7b(result: Fig7bResult) -> str:
    from repro.textfmt import format_table

    rows = []
    for nm in result.market_counts:
        row = [nm]
        for h in result.horizons:
            row.append(1000 * result.cold.get((nm, h), float("nan")))
            row.append(1000 * result.times[(nm, h)][0])
        rows.append(row)
    headers = ["markets"]
    for h in result.horizons:
        headers += [f"H={h}_cold_ms", f"H={h}_warm_ms"]
    return format_table(
        headers,
        rows,
        title="Fig 7(b): cold-start vs median warm re-solve (ms)",
    )
