"""Cluster-episode scenario runner: storms and crowds in the DES testbed.

An :class:`EpisodeSpec` describes one adversarial cluster episode — a
fleet, a (possibly flash-crowd-shaped) arrival-rate trace, and a
schedule of correlated revocation storms — and :func:`run_episode`
replays it under a chosen simulation engine with a **fresh, private
event journal**, returning the journal records the invariant oracle
evaluates.

Every episode runs the transiency-aware balancer with like-for-like
reactive reprovisioning (optionally capped, for drought-style episodes)
and is a pure function of ``(spec, engine, seed)``: the rate trace, the
DES arrival stream, and every journal id derive from the seed, so two
identical runs export byte-identical journals — the property the
nightly events-``diff`` gate enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.loadbalancer import TransiencyAwareLoadBalancer
from repro.obs.anomaly import AnomalyMonitor
from repro.obs.events import EventLog
from repro.obs.live import TelemetryBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.recording import current
from repro.parallel import derive_seed
from repro.simulator import HybridClusterSimulation
from repro.simulator.cluster import ClusterConfig
from repro.simulator.hybrid import ENGINES
from repro.units import SECONDS_PER_HOUR
from repro.workloads.flashcrowd import compose_flash_crowds
from repro.workloads.trace import WorkloadTrace

__all__ = ["StormSpec", "EpisodeSpec", "run_episode"]


@dataclass(frozen=True)
class StormSpec:
    """One correlated revocation storm: many servers, one warning window."""

    at: float
    servers: tuple[int, ...]
    warning_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError("storm time must be non-negative")
        if not self.servers:
            raise ValueError("storm needs at least one server")


@dataclass(frozen=True)
class EpisodeSpec:
    """One adversarial cluster episode.

    ``capacities`` is the initial fleet (req/s per server; all start
    serving with warm caches).  The arrival rate is a piecewise-constant
    trace: ``base_rps`` held over ``rate_interval_seconds`` steps, with
    ``flash_crowds`` seeded spikes composed on top (the TV4-style bursty
    layer).  ``reprovision_cap_rps`` bounds total replacement capacity —
    ``0.0`` disables replacements entirely, ``None`` leaves them
    unbounded; a finite cap is the cluster-level analogue of the
    portfolio's ``A_max``.
    """

    name: str
    duration: float
    capacities: tuple[float, ...]
    base_rps: float
    storms: tuple[StormSpec, ...] = ()
    rate_interval_seconds: float = 15.0
    flash_crowds: int = 0
    flash_magnitude: tuple[float, float] = (1.6, 2.4)
    warning_seconds: float = 120.0
    reprovision_cap_rps: float | None = None
    price_per_rps_hour: float = 0.002
    slo_threshold: float = 1.0
    slo_interval_seconds: float = 30.0
    long_request_fraction: float = 0.0
    extra_config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not self.capacities:
            raise ValueError("episode needs at least one server")
        if self.base_rps <= 0:
            raise ValueError("base_rps must be positive")
        if self.rate_interval_seconds <= 0:
            raise ValueError("rate_interval_seconds must be positive")
        if self.flash_crowds < 0:
            raise ValueError("flash_crowds must be non-negative")
        if self.price_per_rps_hour < 0:
            raise ValueError("price_per_rps_hour must be non-negative")
        n = len(self.capacities)
        for storm in self.storms:
            if any(not 0 <= i < n for i in storm.servers):
                raise ValueError("storm server index out of range")


def _rate_trace(spec: EpisodeSpec, seed: int) -> WorkloadTrace:
    """The episode's arrival-rate trace, derived purely from the seed."""
    steps = max(2, int(np.ceil(spec.duration / spec.rate_interval_seconds)))
    trace = WorkloadTrace(
        np.full(steps, spec.base_rps),
        spec.rate_interval_seconds,
        spec.name,
    )
    if spec.flash_crowds > 0:
        trace = compose_flash_crowds(
            trace,
            count=spec.flash_crowds,
            seed=derive_seed(seed, spec.name, "flash"),
            magnitude_range=spec.flash_magnitude,
        )
    return trace


def _integrate_cost(
    timeline: list[tuple[float, float]],
    duration: float,
    price_per_rps_hour: float,
) -> float:
    """Dollars from the serving-capacity step function (capacity-hours)."""
    if not timeline:
        return 0.0
    cost = 0.0
    for (t0, cap), (t1, _next_cap) in zip(timeline, timeline[1:]):
        cost += cap * max(0.0, min(t1, duration) - t0)
    last_t, last_cap = timeline[-1]
    cost += last_cap * max(0.0, duration - last_t)
    return cost / SECONDS_PER_HOUR * price_per_rps_hour


def run_episode(
    spec: EpisodeSpec, *, engine: str = "request", seed: int = 0
) -> list[dict]:
    """Replay one episode under ``engine``; returns its journal records.

    The run is a :class:`~repro.obs.recording.Recording` of its own:
    it journals into a private :class:`EventLog`, bracketed by
    ``scenario.begin`` and ``scenario.outcome`` events; the outcome
    carries the aggregates the invariant packs read — cost, stranded
    sessions, fluid ledger error, drop rate, and the recorder's
    served/dropped/failed counts.

    A private telemetry bus streams the episode to a fresh
    :class:`~repro.obs.anomaly.AnomalyMonitor` (so ``telemetry.anomaly``
    events land in the journal for the invariant oracle) and, when the
    caller's recording holds a flight recorder, to that recorder — all
    per-episode state, so parallel sweep cells stay byte-identical to
    serial runs.  The episode also counts into a private metrics
    registry, so the metrics a flight bundle's header carries are a
    function of ``(spec, engine, seed)`` too.  It shares the caller's
    tracer.
    """
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    trace = _rate_trace(spec, seed)
    caller = current()
    bus = TelemetryBus(enabled=True)
    bus.subscribe(AnomalyMonitor())
    if caller.flightrec is not None:
        bus.subscribe(caller.flightrec)
    episode = caller.replace(
        events=EventLog(enabled=True), bus=bus, metrics=MetricsRegistry()
    )
    with episode:
        ev = episode.events
        config = ClusterConfig(
            seed=derive_seed(seed, spec.name, "des"),
            warning_seconds=spec.warning_seconds,
            slo_threshold=spec.slo_threshold,
            slo_interval_seconds=spec.slo_interval_seconds,
            long_request_fraction=spec.long_request_fraction,
            **spec.extra_config,
        )

        cluster: HybridClusterSimulation
        budget = {"rps": spec.reprovision_cap_rps}

        def reprovision(lost_capacity: float, _now: float) -> None:
            capacity = lost_capacity
            if budget["rps"] is not None:
                capacity = min(capacity, budget["rps"])
                budget["rps"] -= capacity
            if capacity > 0:
                cluster.add_server(capacity)

        ev.emit(
            "scenario.begin",
            t=0.0,
            event_id=ev.unique_id("scn"),
            scenario=spec.name,
            scenario_kind="cluster",
            engine=engine,
            seed=seed,
            servers=len(spec.capacities),
            duration=spec.duration,
        )
        cluster = HybridClusterSimulation(
            config,
            lambda rec: TransiencyAwareLoadBalancer(
                rec, reprovision=reprovision
            ),
            engine=engine,
            keep_raw=False,
        )
        for cap in spec.capacities:
            cluster.add_server(cap, boot_seconds=0.0)
        # Warm caches: the episode starts from steady state, not a cold boot.
        for server in cluster.servers.values():
            server.prewarm(-config.warmup_seconds)
        for storm in spec.storms:
            cluster.schedule_storm(
                list(storm.servers),
                storm.at,
                warning_seconds=storm.warning_seconds,
            )

        def rate_fn(t: float) -> float:
            idx = min(
                int(t / spec.rate_interval_seconds), trace.rates.size - 1
            )
            return float(trace.rates[idx])

        recorder = cluster.run(spec.duration, rate_fn)

        cost = _integrate_cost(
            cluster.capacity_timeline, spec.duration, spec.price_per_rps_hour
        )
        total = float(recorder.total)
        dropped = float(recorder.dropped) + float(recorder.failed)
        ev.emit(
            "scenario.outcome",
            t=spec.duration,
            scenario=spec.name,
            scenario_kind="cluster",
            engine=engine,
            seed=seed,
            cost=cost,
            stranded=cluster.balancer.stranded_sessions(),
            ledger_error=abs(cluster.fluid.balance_error()),
            unserved_fraction=(dropped / total) if total > 0 else 0.0,
            drop_rate=recorder.drop_rate(),
            served=float(recorder.served),
            dropped=float(recorder.dropped),
            failed=float(recorder.failed),
            tier_switches=cluster.tier_switches,
        )
        # Final frame: drain the outcome into the stream so the flight
        # recorder's window ends at the episode's last word.  The outcome
        # event is not a watched series, so this appends nothing to the
        # journal and ``records()[-1]`` stays ``scenario.outcome``.
        bus.flush(spec.duration)
        return ev.records()
