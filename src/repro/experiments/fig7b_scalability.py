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
are visible separately.  ``backend`` selects the KKT path
(:class:`repro.core.mpo.MPOOptimizer` backends: auto/structured/admm).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import CostModel, MPOOptimizer
from repro.markets import default_catalog, generate_market_dataset
from repro.solvers.qp import lapack

__all__ = ["Fig7bResult", "run_fig7b", "format_fig7b"]


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
    backend: str = "auto"


def _replicated_markets(count: int) -> list:
    """A market universe of arbitrary size built from the catalog.

    The catalog has 40 types; larger universes come from the (type x
    availability-zone) cross product — exactly how market counts grow on
    real clouds (``repro.markets.zones``).
    """
    from repro.markets.zones import expand_zones

    catalog = default_catalog()
    if count <= len(catalog):
        return catalog.spot_markets(count)
    zones = -(-count // len(catalog))  # ceil division
    zone_names = tuple(chr(ord("a") + z) for z in range(zones))
    expanded = expand_zones(catalog, zones=zone_names)
    return [zm.market for zm in expanded[:count]]


def run_fig7b(
    *,
    market_counts: tuple[int, ...] = (9, 18, 36, 72, 144),
    horizons: tuple[int, ...] = (2, 4, 6, 10),
    repeats: int = 5,
    seed: int = 0,
    backend: str = "auto",
) -> Fig7bResult:
    result = Fig7bResult(
        market_counts=market_counts, horizons=horizons, backend=backend
    )
    rng = np.random.default_rng(seed)
    for nm in market_counts:
        markets = _replicated_markets(nm)
        dataset = generate_market_dataset(
            markets, intervals=repeats + 2, seed=seed
        )
        covariance = dataset.event_covariance()
        for h in horizons:
            optimizer = MPOOptimizer(
                markets,
                horizon=h,
                cost_model=CostModel(churn_penalty=0.2),
                backend=backend,
            )
            # Cold start: builds and factorizes the solver, then solves.
            # scipy.linalg's import is no part of it.
            lapack()
            t0_s = time.perf_counter()
            optimizer.optimize(
                np.full(h, 10_000.0),
                np.tile(dataset.prices[0], (h, 1)),
                np.tile(dataset.failure_probs[0], (h, 1)),
                covariance,
            )
            result.cold[(nm, h)] = time.perf_counter() - t0_s
            samples = []
            fractions = None
            for r in range(repeats):
                target = 10_000.0 * float(rng.uniform(0.8, 1.2))
                t0_s = time.perf_counter()
                res = optimizer.optimize(
                    np.full(h, target),
                    np.tile(dataset.prices[r + 1], (h, 1)),
                    np.tile(dataset.failure_probs[r + 1], (h, 1)),
                    covariance,
                    current_fractions=fractions,
                )
                samples.append(time.perf_counter() - t0_s)
                fractions = res.plan.first.fractions
            result.times[(nm, h)] = (
                float(np.median(samples)),
                float(np.max(samples)),
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
        title=(
            "Fig 7(b): cold-start vs median warm re-solve (ms) "
            f"[backend={result.backend}]"
        ),
    )
