"""Figure 6(b): SpotWeb vs ExoSphere-in-a-loop.

The headline comparison: across market universes (up to 36 spot markets) and
look-ahead horizons (2, 4, 6, 10), SpotWeb's receding-horizon optimizer vs
re-running single-period ExoSphere every interval.  Paper findings the bench
checks for:

- SpotWeb saves up to ~50% (Wikipedia; ~25% on the spikier TV4 trace).
- Savings tend to *grow with the number of markets* (more choices for
  future knowledge to exploit).
- Longer horizons do **not** reliably improve on short ones (long-range
  predictions are noisier, and only the first interval executes anyway).

The (market-count x seed) grid is embarrassingly parallel; pass
``workers=N`` (``None``: one per CPU) to fan the cells out over a process
pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import ExoSphereLoopPolicy
from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.markets import default_catalog, generate_market_dataset
from repro.parallel import pmap
from repro.predictors import (
    AR1PricePredictor,
    ReactiveFailurePredictor,
    SplinePredictor,
)
from repro.simulator import CostSimulator
from repro.workloads import WorkloadTrace, vod_like, wikipedia_like

__all__ = ["Fig6bResult", "run_fig6b", "format_fig6b"]


@dataclass
class Fig6bResult:
    """savings[(num_markets, horizon)] = mean fractional saving vs ExoSphere.

    ``raw_savings`` keeps the per-seed values behind each mean so callers
    can attach bootstrap confidence intervals
    (:func:`repro.analysis.bootstrap_mean_ci`).
    """

    savings: dict[tuple[int, int], float] = field(default_factory=dict)
    raw_savings: dict[tuple[int, int], list[float]] = field(default_factory=dict)
    market_counts: tuple[int, ...] = ()
    horizons: tuple[int, ...] = ()
    workload: str = "wikipedia"


def _run_cell(params: dict) -> tuple[int, int, dict[int, float]]:
    """One (market count, seed) cell: savings per horizon vs ExoSphere."""
    nm = params["nm"]
    seed = params["seed"]
    weeks = params["weeks"]
    peak_rps = params["peak_rps"]
    horizons = params["horizons"]
    workload = params["workload"]

    markets = default_catalog().spot_markets(nm)
    dataset = generate_market_dataset(markets, intervals=weeks * 7 * 24, seed=seed)
    if workload == "wikipedia":
        trace: WorkloadTrace = wikipedia_like(weeks, seed=seed)
    elif workload == "vod":
        trace = vod_like(weeks, seed=seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    trace = trace.scaled(peak_rps)
    sim = CostSimulator(dataset, trace, seed=seed)
    exo = sim.run(ExoSphereLoopPolicy(markets), name="exosphere")
    out: dict[int, float] = {}
    for h in horizons:
        controller = SpotWebController(
            markets,
            SplinePredictor(trace.intervals_per_day),
            AR1PricePredictor(nm),
            ReactiveFailurePredictor(nm),
            horizon=h,
            cost_model=CostModel(churn_penalty=0.2),
        )
        sw = sim.run(SpotWebPolicy(controller), name=f"spotweb_H{h}")
        out[h] = sw.savings_vs(exo)
    return nm, seed, out


def run_fig6b(
    *,
    market_counts: tuple[int, ...] = (6, 12, 24, 36),
    horizons: tuple[int, ...] = (2, 4, 6, 10),
    weeks: int = 2,
    peak_rps: float = 30_000.0,
    seeds: tuple[int, ...] = (3, 17),
    workload: str = "wikipedia",
    workers: int | None = 1,
) -> Fig6bResult:
    """Sweep (market count x horizon), averaging savings over seeds."""
    result = Fig6bResult(
        market_counts=market_counts, horizons=horizons, workload=workload
    )
    cells = [
        {
            "nm": nm,
            "seed": seed,
            "weeks": weeks,
            "peak_rps": peak_rps,
            "horizons": horizons,
            "workload": workload,
        }
        for nm in market_counts
        for seed in seeds
    ]
    outputs = pmap(_run_cell, cells, max_workers=workers)
    per_config: dict[tuple[int, int], list[float]] = {}
    for nm, _seed, savings in outputs:
        for h, value in savings.items():
            per_config.setdefault((nm, h), []).append(value)
    for key, values in per_config.items():
        result.savings[key] = float(np.mean(values))
        result.raw_savings[key] = [float(v) for v in values]
    return result


def format_fig6b(result: Fig6bResult) -> str:
    from repro.textfmt import format_table

    rows = []
    for nm in result.market_counts:
        rows.append(
            [nm]
            + [100 * result.savings[(nm, h)] for h in result.horizons]
        )
    return format_table(
        ["markets"] + [f"H={h}_sav_%" for h in result.horizons],
        rows,
        title=(
            "Fig 6(b): SpotWeb savings vs ExoSphere-in-a-loop "
            f"({result.workload} workload)"
        ),
    )
