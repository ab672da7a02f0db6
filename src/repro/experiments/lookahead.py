"""Section 7 discussion: when longer look-ahead actually helps.

The paper: "The case where we saw the most savings is when the time it takes
to start the new instance is longer than the period between two
predictions" — slow VM fulfilment or long application warm-up.  This
experiment makes startup take multiple intervals (by raising the
simulator's startup delay) and compares short vs long horizons: with slow
starts, planning ahead avoids paying for capacity that arrives too late.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.markets import default_catalog, generate_market_dataset
from repro.parallel import pmap, shared_setup, sweep_grid
from repro.predictors import (
    AR1PricePredictor,
    OraclePredictor,
    ReactiveFailurePredictor,
)
from repro.simulator import CostSimulator
from repro.workloads import vod_like

__all__ = ["LookaheadResult", "run_lookahead", "format_lookahead"]


@dataclass
class LookaheadResult:
    """total_cost[(startup_seconds, horizon)]"""

    costs: dict[tuple[float, int], float]
    startups: tuple[float, ...]
    horizons: tuple[int, ...]

    def gain_from_lookahead(self, startup: float) -> float:
        """Fractional saving of the longest vs shortest horizon."""
        short = self.costs[(startup, self.horizons[0])]
        long_ = self.costs[(startup, self.horizons[-1])]
        return 1.0 - long_ / short if short > 0 else 0.0


def _lookahead_setup(num_markets: int, weeks: int, peak_rps: float, seed: int):
    """Shared read-only inputs for one lookahead configuration (memoized)."""

    def build():
        markets = default_catalog().spot_markets(num_markets)
        dataset = generate_market_dataset(
            markets, intervals=weeks * 7 * 24, seed=seed
        )
        trace = vod_like(weeks, seed=seed).scaled(peak_rps)
        return markets, dataset, trace

    return shared_setup(("lookahead", num_markets, weeks, peak_rps, seed), build)


def _lookahead_cell(params: dict) -> float:
    """Total cost of one (startup_seconds, horizon) cell."""
    markets, dataset, trace = _lookahead_setup(
        params["num_markets"], params["weeks"], params["peak_rps"], params["seed"]
    )
    startup, h, seed = params["startup"], params["horizon"], params["seed"]
    sim = CostSimulator(dataset, trace, seed=seed, startup_seconds=startup)
    controller = SpotWebController(
        markets,
        OraclePredictor(trace),
        AR1PricePredictor(len(markets)),
        ReactiveFailurePredictor(len(markets)),
        horizon=h,
        cost_model=CostModel(churn_penalty=0.2),
    )
    report = sim.run(SpotWebPolicy(controller), name=f"s{int(startup)}_H{h}")
    return report.total_cost


def run_lookahead(
    *,
    startups: tuple[float, ...] = (300.0, 3600.0),
    horizons: tuple[int, ...] = (1, 6),
    num_markets: int = 12,
    weeks: int = 2,
    peak_rps: float = 30_000.0,
    seed: int = 7,
    parallel: bool = False,
    max_workers: int | None = None,
) -> LookaheadResult:
    base = {
        "num_markets": num_markets,
        "weeks": weeks,
        "peak_rps": peak_rps,
        "seed": seed,
    }
    cells = [
        {**cell, **base}
        for cell in sweep_grid(startup=startups, horizon=horizons)
    ]
    totals = pmap(
        _lookahead_cell, cells, max_workers=(max_workers if parallel else 1)
    )
    costs = {
        (cell["startup"], cell["horizon"]): total
        for cell, total in zip(cells, totals)
    }
    return LookaheadResult(costs=costs, startups=startups, horizons=horizons)


def format_lookahead(result: LookaheadResult) -> str:
    from repro.textfmt import format_table

    rows = []
    for s in result.startups:
        rows.append(
            [s]
            + [result.costs[(s, h)] for h in result.horizons]
            + [100 * result.gain_from_lookahead(s)]
        )
    return format_table(
        ["startup_s"]
        + [f"H={h}_total_$" for h in result.horizons]
        + ["lookahead_gain_%"],
        rows,
        title="Sec 7: value of look-ahead vs instance startup time",
    )
