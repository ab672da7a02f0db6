"""The full SpotWeb system in one closed loop — the prototype, simulated.

Everything in Fig. 2 wired together inside the discrete-event simulator:

- the **controller** re-optimizes the portfolio every control interval from
  monitored workload/price/failure feeds;
- the **transient cloud** leases VMs (startup delay), issues revocation
  warnings, reclaims after the warning window, and bills at market prices;
- the **monitoring hub** aggregates the feeds and relays warnings;
- the **transiency-aware load balancer** routes request-level traffic,
  drains doomed servers, migrates sessions, and requests replacements;
- **request-level servers** queue and serve the actual traffic, with boot
  and cache warm-up behaviour.

The interval-level :class:`~repro.simulator.runner.CostSimulator` answers
"what does a policy cost over months"; this module answers "does the whole
machine actually hold latency through real revocations" — the role the EC2
testbed plays in the paper.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from repro.core.controller import SpotWebController
from repro.devtools.contracts import field_units, units
from repro.loadbalancer.transiency import TransiencyAwareLoadBalancer
from repro.markets.cloud import TransientCloud, VMInstance
from repro.markets.dataset import MarketDataset
from repro.markets.revocation import CorrelatedRevocationSampler
from repro.monitoring import MonitoringHub
from repro.obs import get_events
from repro.simulator.des import Simulator
from repro.simulator.fluid import FluidEngine
from repro.simulator.hybrid import (
    ENGINES,
    TIER_FLUID,
    TIER_REQUEST,
    absorb_fleet,
    materialize_fleet,
)
from repro.simulator.metrics import LatencyRecorder
from repro.simulator.server import SimServer
from repro.workloads.trace import WorkloadTrace

__all__ = ["SystemConfig", "SystemReport", "SpotWebSystem"]

logger = logging.getLogger(__name__)


@field_units(
    interval_seconds="s",
    warning_seconds="s",
    startup_seconds="s",
    service_time="s",
    warmup_seconds="s",
    queue_limit_seconds="s",
    slo_threshold="s",
    drain_before_terminate_seconds="s",
    fluid_step_seconds="s",
    settle_seconds="s",
    spike_threshold="frac",
    overload_utilization="frac",
)
@dataclass
class SystemConfig:
    """Timing and service parameters of the closed-loop run.

    ``interval_seconds`` is the control/billing interval in *simulated*
    time; runs typically compress the paper's hourly cadence so that a
    multi-interval scenario stays cheap to simulate at request level.
    """

    interval_seconds: float = 600.0
    warning_seconds: float = 120.0
    startup_seconds: float = 55.0
    service_time: float = 0.1
    warmup_seconds: float = 60.0
    cold_multiplier: float = 2.0
    queue_limit_seconds: float = 4.0
    slo_threshold: float = 1.0
    drain_before_terminate_seconds: float = 30.0
    seed: int = 0
    # Simulation engine: "request" is the original per-request closed loop
    # (bit-for-bit unchanged); "hybrid" runs the fluid tier between
    # revocation windows/spikes; "fluid" never drops to request level.
    engine: str = "request"
    fluid_step_seconds: float = 1.0
    settle_seconds: float = 30.0
    spike_threshold: float = 0.3
    overload_utilization: float = 0.9

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if self.warning_seconds < 0 or self.startup_seconds < 0:
            raise ValueError("durations must be non-negative")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.fluid_step_seconds <= 0:
            raise ValueError("fluid_step_seconds must be positive")
        if self.settle_seconds < 0:
            raise ValueError("settle_seconds must be non-negative")


@field_units(total_cost="usd")
@dataclass
class SystemReport:
    """Outcome of a closed-loop run."""

    recorder: LatencyRecorder
    total_cost: float
    revocation_events: int
    fleet_timeline: list[tuple[float, int, float]] = field(default_factory=list)
    # entries are (sim_time, live_server_count, live_capacity_rps)
    interval_observed_rps: list[float] = field(default_factory=list)
    # ticks executed per tier ({"fluid": n, "request": m}; request-engine
    # runs report every tick as request)
    tier_steps: dict[str, int] = field(default_factory=dict)

    def summary(self) -> dict[str, float]:
        out = self.recorder.summary()
        out["total_cost"] = self.total_cost
        out["revocations"] = float(self.revocation_events)
        return out


class SpotWebSystem:
    """Closed-loop SpotWeb: controller + cloud + LB + request-level servers.

    Parameters
    ----------
    controller:
        A configured :class:`SpotWebController`; its market list must match
        the dataset's columns.
    dataset:
        Market weather — one row of prices/failure probabilities per control
        interval.
    config:
        Timing/service parameters.
    """

    def __init__(
        self,
        controller: SpotWebController,
        dataset: MarketDataset,
        config: SystemConfig | None = None,
    ) -> None:
        if [m.name for m in controller.markets] != [
            m.name for m in dataset.markets
        ]:
            raise ValueError("controller and dataset markets must match")
        self.controller = controller
        self.dataset = dataset
        self.config = config or SystemConfig()
        self.markets = list(controller.markets)

        self.sim = Simulator()
        # keep_raw: system-level reports use exact percentile/window arrays.
        self.recorder = LatencyRecorder(
            slo_threshold=self.config.slo_threshold, keep_raw=True
        )
        self.monitor = MonitoringHub(self.markets)
        # halog-style application statistics: the feed the paper's workload
        # predictor polls over REST.
        from repro.loadbalancer.stats import BalancerStats

        self.stats = BalancerStats(window_seconds=self.config.interval_seconds)
        self.balancer = TransiencyAwareLoadBalancer(
            self.recorder,
            reprovision=self._reprovision,
        )
        self.monitor.on_warning(self.balancer.on_warning)
        self._interval_index = 0
        self.cloud = TransientCloud(
            warning_seconds=self.config.warning_seconds,
            startup_seconds=self.config.startup_seconds,
            price_fn=self._current_price,
        )
        self.cloud.on_warning(self._on_cloud_warning)
        self.cloud.on_termination(self._on_cloud_termination)

        self._sampler = CorrelatedRevocationSampler(
            dataset.event_covariance(), seed=self.config.seed
        )
        self._rng = np.random.default_rng(self.config.seed + 7)
        self._servers: dict[int, SimServer] = {}  # vm_id -> server
        self._vms: dict[int, VMInstance] = {}
        self._served_this_interval = 0.0
        self._revocations = 0
        # Hybrid-engine state (idle when engine == "request").
        self._fluid = FluidEngine(self.sim)
        self._tier: str | None = None
        self._window_until = float("-inf")
        self._window_cause: str | None = None
        self._window_trigger = "start"
        self._last_rate: float | None = None
        self.tier_steps = {TIER_FLUID: 0, TIER_REQUEST: 0}
        self._fleet_timeline: list[tuple[float, int, float]] = []
        self._observed: list[float] = []

    # ------------------------------------------------------------ price feed
    def _current_price(self, market, _now: float) -> float:
        t = min(self._interval_index, self.dataset.num_intervals - 1)
        j = next(
            i for i, m in enumerate(self.markets) if m.name == market.name
        )
        return float(self.dataset.prices[t, j])

    # ------------------------------------------------------------- VM <-> LB
    def _launch(self, market_index: int, count: int) -> None:
        market = self.markets[market_index]
        vms = self.cloud.request(market, count, self.sim.now)
        for vm in vms:
            server = SimServer(
                self.sim,
                self.recorder,
                server_id=vm.vm_id,
                capacity_rps=market.capacity_rps,
                service_time=self.config.service_time,
                boot_seconds=self.config.startup_seconds,
                warmup_seconds=self.config.warmup_seconds,
                cold_multiplier=self.config.cold_multiplier,
                queue_limit_seconds=self.config.queue_limit_seconds,
                seed=self.config.seed,
                track_completions=self.config.engine != "request",
            )
            self._servers[vm.vm_id] = server
            self._vms[vm.vm_id] = vm
            self.balancer.add_backend(server)

    def _terminate_surplus(self, market_index: int, count: int) -> None:
        """Relinquish ``count`` servers of a market (drain, then release)."""
        market = self.markets[market_index]
        victims = [
            vm
            for vm in self.cloud.live_vms(market)
            if self._servers[vm.vm_id].alive
        ][:count]
        for vm in victims:
            server = self._servers[vm.vm_id]
            server.drain()
            self.balancer.wrr.remove(server.server_id)
            delay = self.config.drain_before_terminate_seconds
            self.sim.schedule(delay, self._release, vm.vm_id)

    def _release(self, vm_id: int) -> None:
        vm = self._vms.get(vm_id)
        if vm is None or not vm.alive:
            return
        self.cloud.terminate(vm, self.sim.now)

    def _on_cloud_warning(self, vm: VMInstance, now: float) -> None:
        ev = get_events()
        if ev.enabled:
            server = self._servers.get(vm.vm_id)
            ev.open_warning(
                vm.vm_id,
                t=now,
                capacity_rps=(
                    0.0 if server is None else server.capacity_rps
                ),
            )
        self.monitor.relay_warning(vm.vm_id, now)
        deadline = vm.warning_deadline or (now + self.config.warning_seconds)
        self.sim.schedule_at(deadline, self._kill_server, vm.vm_id)
        self._open_window(
            deadline + self.config.settle_seconds,
            cause=get_events().warning_for(vm.vm_id),
            trigger="warning",
        )

    def _on_cloud_termination(self, vm: VMInstance, _now: float) -> None:
        self._kill_server(vm.vm_id)

    def _kill_server(self, vm_id: int) -> None:
        server = self._servers.get(vm_id)
        if server is not None and server.alive:
            lost = server.kill()
            self.balancer.remove_backend(vm_id)
            ev = get_events()
            if ev.enabled:
                wid = ev.warning_for(vm_id)
                ev.emit(
                    "server.killed",
                    t=self.sim.now,
                    cause=wid,
                    backend=vm_id,
                    lost=lost,
                )
                ev.resolve_warning(wid, t=self.sim.now, lost=lost)
        self._fleet_timeline.append(
            (self.sim.now, self._live_count(), self._live_capacity())
        )

    @units("req/s", "s")
    def _reprovision(self, lost_capacity: float, _now: float) -> None:
        """LB asks for emergency replacement capacity: cheapest market now."""
        t = min(self._interval_index, self.dataset.num_intervals - 1)
        per_request = self.dataset.prices[t] / self.dataset.capacities
        j = int(np.argmin(per_request))
        count = max(1, int(np.ceil(lost_capacity / self.markets[j].capacity_rps)))
        logger.debug(
            "reprovision: %.0f rps lost -> %d x %s at t=%.1f",
            lost_capacity,
            count,
            self.markets[j].name,
            self.sim.now,
        )
        self._launch(j, count)

    def _live_count(self) -> int:
        return sum(1 for s in self._servers.values() if s.alive)

    @units(ret="req/s")
    def _live_capacity(self) -> float:
        return float(
            sum(s.capacity_rps for s in self._servers.values() if s.alive)
        )

    # ------------------------------------------------------------ the loop
    def _control_step(self, trace: WorkloadTrace, t: int) -> None:
        cfg = self.config
        now = self.sim.now
        observed = self._served_this_interval / cfg.interval_seconds
        if t == 0:
            # Bootstrap: no measurements yet; use the trace's first rate.
            observed = float(trace.rates[0])
        self._served_this_interval = 0
        self._observed.append(observed)

        self.monitor.ingest_prices(self.dataset.prices[t])
        self.monitor.ingest_failure_probs(self.dataset.failure_probs[t])
        self.monitor.ingest_workload(observed)
        self.monitor.ingest_balancer_stats(self.stats.snapshot())
        snapshot = self.monitor.snapshot(now)

        decision = self.controller.step(
            snapshot.observed_rps, snapshot.prices, snapshot.failure_probs
        )

        # Reconcile the fleet market by market.
        for j, market in enumerate(self.markets):
            live = [
                vm
                for vm in self.cloud.live_vms(market)
                if self._servers[vm.vm_id].phase.value in ("booting", "running")
            ]
            target = int(decision.counts[j])
            if target > len(live):
                self._launch(j, target - len(live))
            elif target < len(live):
                self._terminate_surplus(j, len(live) - target)
        self._fleet_timeline.append(
            (now, self._live_count(), self._live_capacity())
        )

        # Revocation weather for this interval: events at a random moment.
        events = self._sampler.sample(self.dataset.failure_probs[t])
        for j, hit in enumerate(events):
            if not hit or not self.markets[j].revocable:
                continue
            if not self.cloud.live_vms(self.markets[j]):
                continue
            self._revocations += 1
            offset = float(self._rng.uniform(0.1, 0.8)) * cfg.interval_seconds
            self.sim.schedule(
                offset, self.cloud.revoke_market, self.markets[j], now + offset
            )

    # --------------------------------------------------------- hybrid engine
    def _open_window(
        self, until: float, *, cause: str | None, trigger: str
    ) -> None:
        """Extend the request-level fidelity window (hybrid engine only)."""
        if self.config.engine != "hybrid":
            return
        if until > self._window_until:
            self._window_until = until
        self._window_cause = cause
        self._window_trigger = trigger

    @units("s", "req/s")
    def _detect_spike(self, now: float, rate: float) -> None:
        previous, self._last_rate = self._last_rate, rate
        if self.config.engine != "hybrid" or previous is None:
            return
        if abs(rate - previous) <= self.config.spike_threshold * max(
            previous, 1e-9
        ):
            return
        ev = get_events()
        spike_id = ev.unique_id("spike")
        if ev.enabled:
            ev.emit(
                "sim.spike", t=now, event_id=spike_id, rate=rate, previous=previous
            )
        self._open_window(
            now + self.config.settle_seconds, cause=spike_id, trigger="spike"
        )

    def _select_tier(self, now: float) -> str:
        if self.config.engine == "fluid":
            return TIER_FLUID
        return TIER_REQUEST if now < self._window_until else TIER_FLUID

    @units(None, "s")
    def _switch_tier(self, tier: str, now: float) -> None:
        previous, self._tier = self._tier, tier
        moved = 0
        if previous is None:
            if tier == TIER_FLUID:
                self._fluid.sync(self._servers, now)
        elif tier == TIER_REQUEST:
            moved = materialize_fleet(self._fluid, self._servers, self.recorder, now)
        else:
            moved = absorb_fleet(self._fluid, self._servers, self.recorder, now)
        ev = get_events()
        if ev.enabled:
            if tier == TIER_REQUEST and previous is not None:
                cause, trigger = self._window_cause, self._window_trigger
            elif previous is None:
                cause, trigger = None, "start"
            else:
                cause, trigger = None, "settled"
            ev.emit(
                "sim.tier_switch",
                t=now,
                cause=cause,
                tier=tier,
                trigger=trigger,
                moved=moved,
            )

    @units("s", "s", "req/s")
    def _fluid_span(self, t0: float, t1: float, rate: float) -> None:
        """Advance ``[t0, t1]`` with fluid rate steps (DES events interleave)."""
        cfg = self.config
        now = t0
        while now < t1 - 1e-9:
            step_end = min(now + cfg.fluid_step_seconds, t1)
            self.sim.advance(step_end)
            failed = self._fluid.sync(self._servers, step_end)
            if failed > 0:
                self.recorder.record_failed_mass(step_end, failed)
            step = self._fluid.step(now, step_end - now, rate)
            if step.weights.size:
                self.recorder.record_served_mass(
                    step_end, step.latencies, step.weights
                )
            if step.dropped > 0:
                self.recorder.record_dropped_mass(step_end, step.dropped)
            self._served_this_interval += step.served
            if step.max_rho >= cfg.overload_utilization:
                self._open_window(
                    step_end + cfg.settle_seconds, cause=None, trigger="overload"
                )
            now = step_end

    @units("req/s", "s")
    def _arrival(self, rate: float, t_end: float) -> None:
        if self.balancer.dispatch(self.sim.now):
            self._served_this_interval += 1
            # Coarse accepted-request record; per-request latencies land in
            # the recorder on completion, the stats hub tracks arrival flow.
            self.stats.record_served(self.sim.now, -1, 0.0)
        else:
            self.stats.record_unserved(self.sim.now)
        gap = float(self._rng.exponential(1.0 / max(rate, 1e-9)))
        if self.sim.now + gap < t_end:
            self.sim.schedule(gap, self._arrival, rate, t_end)

    def run(self, trace: WorkloadTrace, *, intervals: int | None = None) -> SystemReport:
        """Run the closed loop over ``intervals`` control intervals.

        ``trace.rates[t]`` is the offered request rate during interval ``t``
        (in requests/second of simulated time).
        """
        cfg = self.config
        n = intervals if intervals is not None else len(trace)
        n = min(n, len(trace), self.dataset.num_intervals)
        if n < 1:
            raise ValueError("need at least one interval")
        if cfg.engine == "request":
            self._run_request_intervals(trace, n)
        else:
            self._run_hybrid_intervals(trace, n)
        self.sim.run_until(n * cfg.interval_seconds)
        self.cloud.advance(self.sim.now)
        self.cloud.accrue(self.sim.now)
        return SystemReport(
            recorder=self.recorder,
            total_cost=self.cloud.total_cost(),
            revocation_events=self._revocations,
            fleet_timeline=self._fleet_timeline,
            interval_observed_rps=self._observed,
            tier_steps=dict(self.tier_steps),
        )

    def _run_request_intervals(self, trace: WorkloadTrace, n: int) -> None:
        """The original per-request closed loop (every tick is tier B)."""
        cfg = self.config
        for t in range(n):
            self._interval_index = t
            start = t * cfg.interval_seconds
            self.sim.run_until(start)
            self._control_step(trace, t)
            # Offered load for this interval.
            rate = float(trace.rates[t])
            first_gap = float(self._rng.exponential(1.0 / max(rate, 1e-9)))
            t_end = start + cfg.interval_seconds
            if start + first_gap < t_end:
                self.sim.schedule(first_gap, self._arrival, rate, t_end)
            # Progress the cloud state machine at a coarse tick.
            ticks = 10
            for k in range(1, ticks + 1):
                self.sim.run_until(start + k * cfg.interval_seconds / ticks)
                self.cloud.advance(self.sim.now)
            self.tier_steps[TIER_REQUEST] += ticks

    def _run_hybrid_intervals(self, trace: WorkloadTrace, n: int) -> None:
        """The two-tier loop: tier choice at cloud-tick granularity.

        Revocation warnings (via :meth:`_on_cloud_warning`), detected rate
        spikes, and fluid-reported overload open request-level fidelity
        windows; everything else advances as vectorized fluid steps of
        ``fluid_step_seconds``.
        """
        cfg = self.config
        ticks = 10
        tick_len = cfg.interval_seconds / ticks
        for t in range(n):
            self._interval_index = t
            start = t * cfg.interval_seconds
            self.sim.run_until(start)
            self._control_step(trace, t)
            rate = float(trace.rates[t])
            self._detect_spike(start, rate)
            for k in range(ticks):
                tick_start = start + k * tick_len
                tick_end = start + (k + 1) * tick_len
                tier = self._select_tier(tick_start)
                if tier != self._tier:
                    self._switch_tier(tier, tick_start)
                if tier == TIER_REQUEST:
                    self.tier_steps[TIER_REQUEST] += 1
                    gap = float(self._rng.exponential(1.0 / max(rate, 1e-9)))
                    if tick_start + gap < tick_end:
                        self.sim.schedule(gap, self._arrival, rate, tick_end)
                    self.sim.run_until(tick_end)
                else:
                    self.tier_steps[TIER_FLUID] += 1
                    self._fluid_span(tick_start, tick_end, rate)
                self.cloud.advance(self.sim.now)
