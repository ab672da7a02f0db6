"""Two-tier hybrid simulation engine: fluid flow + request-level fidelity.

:class:`HybridClusterSimulation` drives the same fleet, balancer, and
recorder as :class:`~repro.simulator.cluster.ClusterSimulation`, but in
fixed sim-interval chunks, choosing a tier per chunk:

- **fluid** (tier A, :mod:`repro.simulator.fluid`) — one vectorized rate
  step over the whole fleet per chunk: thousands of intervals per second
  regardless of request rate, which is what makes 500k-RPS
  ("million-user") scenarios tractable.
- **request** (tier B, the existing DES path) — per-request arrivals,
  queueing, and completions, switched on only inside **fidelity
  windows**: from a revocation warning until settle time after the kill,
  after a detected rate spike, or while the fluid tier reports
  near-saturation.  Tail latency around the events the paper cares about
  is decided by real requests.

Handoffs conserve in-flight work exactly: entering a fidelity window
**materializes** the integer part of each server's queue mass as real
in-flight requests (sub-request residuals stay in the fluid tier);
leaving it cancels pending completions and **re-absorbs** them as queue
mass (:meth:`SimServer.absorb`).  Redrawing service times on
materialization is distribution-correct by memorylessness, and the fluid
tier draws no randomness at all, so a run remains a pure function of
``(config, seed)``.

Every transition emits a ``sim.tier_switch`` event whose ``cause`` links
to the triggering ``warning.issued`` or ``sim.spike`` event, extending
the journal's causal chains; ``python -m repro events timeline`` renders
the resulting tier spans.

With ``engine="request"`` every chunk uses tier B — the pure
request-level reference the accuracy gate and the bitwise-equivalence
test compare against.  ``engine="fluid"`` forces tier A throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.devtools.contracts import field_units, units
from repro.loadbalancer.vanilla import VanillaLoadBalancer
from repro.obs import get_events, get_tracer
from repro.simulator.cluster import ClusterConfig, ClusterSimulation
from repro.simulator.fluid import FluidEngine
from repro.simulator.metrics import LatencyRecorder

__all__ = [
    "ENGINES",
    "TIER_FLUID",
    "TIER_REQUEST",
    "HybridConfig",
    "HybridClusterSimulation",
    "materialize_fleet",
    "absorb_fleet",
]

TIER_FLUID = "fluid"
TIER_REQUEST = "request"

#: Valid ``engine=`` choices (also the CLI flag vocabulary).
ENGINES = ("hybrid", "request", "fluid")


@units(None, None, None, "s", ret="req")
def materialize_fleet(
    fluid: FluidEngine, servers: dict, recorder: LatencyRecorder, now: float
) -> int:
    """Fluid -> request handoff over a fleet: mass becomes in-flight work.

    Dead-server mass is recorded as failed; each live server materializes
    the integer part of its queue mass (sub-request residuals stay
    fluid).  Mass that cannot land (server still booting) is returned to
    the fluid tier.  Returns the number of requests materialized.
    """
    failed = fluid.sync(servers, now)
    if failed > 0:
        recorder.record_failed_mass(now, failed)
    counts = fluid.withdraw()
    moved = 0
    for sid in sorted(counts):
        admitted = servers[sid].materialize(counts[sid])
        moved += admitted
        leftover = counts[sid] - admitted
        if leftover:
            fluid.deposit(sid, leftover)
    return moved


@units(None, None, None, "s", ret="req")
def absorb_fleet(
    fluid: FluidEngine, servers: dict, recorder: LatencyRecorder, now: float
) -> int:
    """Request -> fluid handoff: pending completions become queue mass."""
    failed = fluid.sync(servers, now)
    if failed > 0:
        recorder.record_failed_mass(now, failed)
    moved = 0
    for sid in sorted(servers):
        server = servers[sid]
        if not server.alive:
            continue
        absorbed = server.absorb()
        if absorbed:
            fluid.deposit(sid, absorbed)
            moved += absorbed
    return moved


@field_units(
    interval_seconds="s",
    settle_seconds="s",
    spike_threshold="frac",
    overload_utilization="frac",
)
@dataclass
class HybridConfig:
    """Knobs of the two-tier engine.

    interval_seconds:
        Chunk width: one fluid rate step (or one request-level arrival
        chain) per chunk.  Also the granularity of tier decisions.
    settle_seconds:
        Request-level fidelity persists this long past the triggering
        condition (kill, spike, overload), covering recovery transients
        like cold-cache warm-up on replacements.
    spike_threshold:
        Relative rate change between consecutive chunks that flags a
        spike (0.3 = ±30%).
    overload_utilization:
        A fluid step reporting per-server utilization at or above this
        opens a fidelity window — saturation tails need real queueing.
    """

    interval_seconds: float = 1.0
    settle_seconds: float = 30.0
    spike_threshold: float = 0.3
    overload_utilization: float = 0.9

    def __post_init__(self) -> None:
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if self.settle_seconds < 0:
            raise ValueError("settle_seconds must be non-negative")
        if self.spike_threshold <= 0:
            raise ValueError("spike_threshold must be positive")
        if not 0 < self.overload_utilization <= 1:
            raise ValueError("overload_utilization must be in (0, 1]")


class HybridClusterSimulation(ClusterSimulation):
    """A :class:`ClusterSimulation` with a switchable fluid tier."""

    _track_completions = True

    def __init__(
        self,
        config: ClusterConfig | None = None,
        balancer_factory: Callable[[LatencyRecorder], VanillaLoadBalancer]
        | None = None,
        *,
        engine: str = "hybrid",
        hybrid: HybridConfig | None = None,
        keep_raw: bool = False,
    ) -> None:
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        super().__init__(config, balancer_factory, keep_raw=keep_raw)
        self.engine = engine
        self.hybrid = hybrid or HybridConfig()
        self.fluid = FluidEngine(self.sim)
        self._tier: str | None = None
        self._window_until = float("-inf")
        self._window_cause: str | None = None
        self._window_trigger = "start"
        self._last_rate: float | None = None
        # Mid-chunk handoff state: the rate function and chunk extent of
        # the in-progress chunk, and how far fluid traffic has been offered.
        self._rate_fn: Callable[[float], float] | None = None
        self._chunk_end = float("-inf")
        self._fluid_covered = float("-inf")
        #: chunks executed per tier (per-tier throughput accounting)
        self.tier_steps = {TIER_FLUID: 0, TIER_REQUEST: 0}
        self.tier_switches = 0

    # --------------------------------------------------------------- windows
    @property
    def fidelity_window_until(self) -> float:
        """Sim time until which chunks run at request-level fidelity."""
        return self._window_until

    def _open_window(
        self, until: float, *, cause: str | None, trigger: str
    ) -> None:
        if self.engine != "hybrid":
            return
        if until > self._window_until:
            self._window_until = until
        self._window_cause = cause
        self._window_trigger = trigger

    @units(None, "s")
    def _on_warning_issued(self, server_id: int, warning_seconds: float) -> None:
        """Open a fidelity window spanning the warning and switch tiers NOW.

        The window runs from now until settle time after the kill, so the
        drain, migrations, the kill itself, and the recovery transient all
        happen at request-level fidelity.  The switch must precede the
        balancer's reaction: its drain/defer decision reads real
        utilization, which only exists once fluid mass is materialized.
        """
        self._open_window(
            self.sim.now + warning_seconds + self.hybrid.settle_seconds,
            cause=get_events().warning_for(server_id),
            trigger="warning",
        )
        if self.engine != "hybrid" or self._tier != TIER_FLUID:
            return
        now = self.sim.now
        # Flush the elapsed part of the current fluid chunk, hand the
        # fleet over, and restart the arrival chain for the remainder.
        self._flush_fluid(now)
        self._switch_tier(TIER_REQUEST, now)
        if self._rate_fn is not None and now < self._chunk_end:
            rate_now = max(0.0, float(self._rate_fn(now)))
            gap = float(self._rng.exponential(1.0 / max(rate_now, 1e-9)))
            if now + gap < self._chunk_end:
                self.sim.schedule(gap, self._arrival, self._rate_fn, self._chunk_end)

    @units("s")
    def _flush_fluid(self, t: float) -> None:
        """Run the fluid rate step over ``[fluid_covered, t)`` and record it."""
        dt = t - self._fluid_covered
        self._fluid_covered = t
        if dt <= 1e-12:
            return
        self._record_failed_mass(t, self.fluid.sync(self.servers, t))
        rate_now = (
            max(0.0, float(self._rate_fn(t - dt)))
            if self._rate_fn is not None
            else 0.0
        )
        step = self.fluid.step(t - dt, dt, rate_now)
        if step.weights.size:
            self.recorder.record_served_mass(t, step.latencies, step.weights)
        if step.dropped > 0:
            self.recorder.record_dropped_mass(t, step.dropped)
        if step.max_rho >= self.hybrid.overload_utilization:
            self._open_window(
                t + self.hybrid.settle_seconds, cause=None, trigger="overload"
            )

    @units("s", "req/s")
    def _detect_spike(self, now: float, rate: float) -> None:
        previous, self._last_rate = self._last_rate, rate
        if self.engine != "hybrid" or previous is None:
            return
        if abs(rate - previous) <= self.hybrid.spike_threshold * max(previous, 1e-9):
            return
        ev = get_events()
        spike_id = ev.unique_id("spike")
        if ev.enabled:
            ev.emit(
                "sim.spike",
                t=now,
                event_id=spike_id,
                rate=rate,
                previous=previous,
            )
        self._open_window(
            now + self.hybrid.settle_seconds, cause=spike_id, trigger="spike"
        )

    def _select_tier(self, now: float) -> str:
        if self.engine == "request":
            return TIER_REQUEST
        if self.engine == "fluid":
            return TIER_FLUID
        return TIER_REQUEST if now < self._window_until else TIER_FLUID

    # -------------------------------------------------------------- handoffs
    @units("s", "req")
    def _record_failed_mass(self, now: float, mass: float) -> None:
        if mass > 0:
            self.recorder.record_failed_mass(now, mass)

    @units(None, "s")
    def _switch_tier(self, tier: str, now: float) -> None:
        previous, self._tier = self._tier, tier
        self.tier_switches += 1
        moved = 0
        if previous is None:
            if tier == TIER_FLUID:
                self.fluid.sync(self.servers, now)
        elif tier == TIER_REQUEST:
            moved = materialize_fleet(self.fluid, self.servers, self.recorder, now)
        else:
            moved = absorb_fleet(self.fluid, self.servers, self.recorder, now)
        ev = get_events()
        if ev.enabled:
            if previous is None:
                cause, trigger = None, "start"
                if tier == TIER_REQUEST and self.engine == "hybrid":
                    cause = self._window_cause
                    trigger = self._window_trigger
            elif tier == TIER_REQUEST:
                cause, trigger = self._window_cause, self._window_trigger
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

    # ------------------------------------------------------------------- run
    @units("s")
    def run(
        self,
        duration: float,
        rate: float | Callable[[float], float],
    ) -> LatencyRecorder:
        """Run ``duration`` seconds of traffic through the two-tier engine.

        Same contract as :meth:`ClusterSimulation.run`; time advances in
        ``HybridConfig.interval_seconds`` chunks.  In request-tier chunks
        the Poisson arrival chain restarts at the chunk boundary — a
        statistically identical process by memorylessness.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        rate_fn = rate if callable(rate) else (lambda _t, _r=float(rate): _r)
        self._rate_fn = rate_fn
        t_end = self.sim.now + duration
        dt = self.hybrid.interval_seconds
        with get_tracer().span(
            "hybrid.run", engine=self.engine, duration=duration
        ) as span:
            while self.sim.now < t_end - 1e-9:
                now = self.sim.now
                chunk_end = min(now + dt, t_end)
                self._chunk_end = chunk_end
                rate_now = max(0.0, float(rate_fn(now)))
                self._detect_spike(now, rate_now)
                tier = self._select_tier(now)
                if tier != self._tier:
                    self._switch_tier(tier, now)
                if tier == TIER_REQUEST:
                    self.tier_steps[TIER_REQUEST] += 1
                    gap = float(self._rng.exponential(1.0 / max(rate_now, 1e-9)))
                    if now + gap < chunk_end:
                        self.sim.schedule(gap, self._arrival, rate_fn, chunk_end)
                    self.sim.advance(chunk_end)
                else:
                    self.tier_steps[TIER_FLUID] += 1
                    self._fluid_covered = now
                    # DES events inside the chunk (boots, kills, scheduled
                    # revocations) fire first; a revocation mid-chunk
                    # flushes the elapsed flow and hands the fleet to the
                    # request tier via _on_warning_issued, in which case
                    # the chunk finishes there instead of in a rate step.
                    self.sim.advance(chunk_end)
                    if self._tier == TIER_FLUID:
                        self._flush_fluid(chunk_end)
            span.tag(
                fluid_steps=self.tier_steps[TIER_FLUID],
                request_steps=self.tier_steps[TIER_REQUEST],
                switches=self.tier_switches,
            )
        if self.slo_engine is not None:
            self.slo_engine.finish(t_end)
        return self.recorder

    # ------------------------------------------------------------ invariants
    @units(ret="req")
    def in_system(self) -> float:
        """Work currently in the system: fluid mass + real in-flight."""
        in_flight = sum(
            self.servers[sid].in_flight for sid in sorted(self.servers)
        )
        return self.fluid.total_mass() + float(in_flight)