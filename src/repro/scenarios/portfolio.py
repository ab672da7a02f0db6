"""Portfolio scenario runner: shaped markets through the cost simulator.

Where :mod:`repro.scenarios.episode` stresses the request-level testbed,
this runner stresses the *interval-level* provisioning loop: a market
dataset shaped by the :mod:`repro.markets.injectors` (price wars,
capacity droughts, multi-week drift), a workload shaped by the
flash-crowd compositor, and a provisioning policy replayed through
:class:`~repro.simulator.runner.CostSimulator`.  These scenarios are
engine-independent (the cost simulator has no request tier), so the CLI
runs them once under the ``interval`` label.

``a_max`` caps per-market server counts — the scenario-level stand-in
for the paper's ``A_max`` availability bound.  Pairing a finite cap with
:func:`~repro.markets.injectors.inject_capacity_drought` produces the
infeasible regime the drought invariant pack witnesses: shortfall that
no admissible allocation can avoid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.baselines.qu import QuThresholdPolicy
from repro.markets.catalog import default_catalog
from repro.markets.dataset import MarketDataset, generate_market_dataset
from repro.obs.events import EventLog
from repro.obs.live import TelemetryBus
from repro.obs.recording import current
from repro.parallel import derive_seed
from repro.simulator.runner import CostSimulator
from repro.workloads.flashcrowd import compose_flash_crowds, ramp_trace
from repro.workloads.generators import vod_like, wikipedia_like
from repro.workloads.trace import WorkloadTrace

__all__ = ["PortfolioSpec", "CappedPolicy", "run_portfolio"]


class CappedPolicy:
    """Clip an inner policy's per-market counts to an ``a_max`` ceiling."""

    def __init__(self, inner, a_max: int) -> None:
        if a_max < 0:
            raise ValueError("a_max must be non-negative")
        self.inner = inner
        self.a_max = int(a_max)

    def decide(
        self,
        t: int,
        observed_rps: float,
        prices: np.ndarray,
        failure_probs: np.ndarray,
    ) -> np.ndarray:
        counts = self.inner.decide(t, observed_rps, prices, failure_probs)
        return np.minimum(np.asarray(counts), self.a_max)


@dataclass(frozen=True)
class PortfolioSpec:
    """One interval-level scenario over shaped markets and workloads.

    ``shape`` is the market injector chain (dataset → dataset, pure);
    ``workload`` picks the base generator (``"vod"`` is the TV4-like
    bursty trace the flash-crowd compositor layers onto).
    """

    name: str
    weeks: int = 1
    num_markets: int = 8
    mean_rps: float = 2000.0
    workload: str = "vod"
    flash_crowds: int = 0
    demand_growth_per_week: float = 0.0
    shape: Callable[[MarketDataset], MarketDataset] | None = None
    a_max: int | None = None
    policy_markets: int = 4
    failure_threshold: int = 1

    def __post_init__(self) -> None:
        if self.weeks < 1:
            raise ValueError("weeks must be >= 1")
        if self.num_markets < 1:
            raise ValueError("num_markets must be >= 1")
        if self.mean_rps <= 0:
            raise ValueError("mean_rps must be positive")
        if self.workload not in ("vod", "wiki"):
            raise ValueError("workload must be 'vod' or 'wiki'")
        if self.flash_crowds < 0:
            raise ValueError("flash_crowds must be non-negative")
        if not 1 <= self.policy_markets <= self.num_markets:
            raise ValueError("policy_markets out of range")


def _build_trace(spec: PortfolioSpec, seed: int) -> WorkloadTrace:
    generator = vod_like if spec.workload == "vod" else wikipedia_like
    trace = generator(
        spec.weeks,
        mean_rps=spec.mean_rps,
        seed=derive_seed(seed, spec.name, "trace"),
    )
    if spec.flash_crowds > 0:
        trace = compose_flash_crowds(
            trace,
            count=spec.flash_crowds,
            seed=derive_seed(seed, spec.name, "flash"),
        )
    if abs(spec.demand_growth_per_week) > 1e-12:
        trace = ramp_trace(
            trace, growth_per_week=spec.demand_growth_per_week
        )
    return trace


def run_portfolio(spec: PortfolioSpec, *, seed: int = 0) -> list[dict]:
    """Replay one portfolio scenario; returns its journal records.

    Runs under a recording with a private :class:`EventLog` and a
    private disabled telemetry bus, sharing the caller's other parts,
    and journals like the episode runner, bracketed by
    ``scenario.begin`` / ``scenario.outcome``.  The outcome
    carries ``compliance`` (served fraction — these journals have no
    ``slo.interval`` series), total cost, revocation count, unserved
    fraction, and the worst per-interval P99 estimate.
    """
    markets = default_catalog().spot_markets()[: spec.num_markets]
    dataset = generate_market_dataset(
        markets,
        spec.weeks * 7 * 24,
        seed=derive_seed(seed, spec.name, "market"),
    )
    if spec.shape is not None:
        dataset = spec.shape(dataset)
    trace = _build_trace(spec, seed)

    policy = QuThresholdPolicy(
        dataset.markets,
        num_markets=spec.policy_markets,
        failure_threshold=spec.failure_threshold,
    )
    if spec.a_max is not None:
        policy = CappedPolicy(policy, spec.a_max)

    with current().replace(
        events=EventLog(enabled=True), bus=TelemetryBus()
    ) as portfolio:
        ev = portfolio.events
        ev.emit(
            "scenario.begin",
            t=0.0,
            event_id=ev.unique_id("scn"),
            scenario=spec.name,
            scenario_kind="portfolio",
            engine="interval",
            seed=seed,
            markets=spec.num_markets,
            intervals=dataset.num_intervals,
        )
        simulator = CostSimulator(
            dataset, trace, seed=derive_seed(seed, spec.name, "sim")
        )
        report = simulator.run(policy, name=spec.name)
        ev.emit(
            "scenario.outcome",
            t=dataset.num_intervals * dataset.interval_seconds,
            scenario=spec.name,
            scenario_kind="portfolio",
            engine="interval",
            seed=seed,
            cost=report.total_cost,
            compliance=1.0 - report.unserved_fraction,
            unserved_fraction=report.unserved_fraction,
            revocations=report.revocation_events,
            p99_est_max_s=report.p99_est_max_s,
            stranded=0,
            ledger_error=0.0,
        )
        return ev.records()
