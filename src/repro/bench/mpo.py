"""MPO solver latency benchmark: (markets, horizon, backend) grid.

Each cell is timed by Fig. 7(b)'s protocol
(:func:`repro.experiments.fig7b_scalability.mpo_cells`, which mirrors real
deployment): construct the optimizer once per cell, time the first call
(cold: construction + first KKT factorization + solve), then time
``repeats`` warm re-solves with fresh prices/targets, warm-started from the
previous plan, and record their mean ADMM iteration count and the solver
loop's microseconds per iteration.  Every backend sees the identical target
stream, so the final objectives are directly comparable and their gap
measures backend agreement, not input drift.
"""

from __future__ import annotations

from repro.bench.report import SCHEMA_MPO
from repro.experiments.fig7b_scalability import mpo_cells

__all__ = ["bench_mpo"]


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
    cells = mpo_cells(
        market_counts=market_counts,
        horizons=horizons,
        backends=backends,
        repeats=repeats,
        seed=seed,
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
