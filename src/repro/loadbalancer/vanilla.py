"""Vanilla (HAProxy-like) load balancer — the Fig. 4(a) baseline.

Weighted round robin with sticky sessions and passive health checks, but
**no transiency awareness**: revocation warnings are ignored, so the
balancer keeps routing to a doomed backend until it dies, and keeps routing
to the corpse until a health-check interval elapses.  Every request sent to
a dead or refusing backend beyond its retry budget is dropped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.loadbalancer.sessions import SessionTable
from repro.loadbalancer.wrr import SmoothWeightedRoundRobin

if TYPE_CHECKING:  # avoid a loadbalancer <-> simulator import cycle
    from repro.simulator.metrics import LatencyRecorder

__all__ = ["Backend", "VanillaLoadBalancer"]


class Backend(Protocol):
    """What the balancer needs from a server (satisfied by ``SimServer``)."""

    server_id: int
    capacity_rps: float

    @property
    def alive(self) -> bool: ...

    @property
    def accepting(self) -> bool: ...

    def submit(
        self,
        session_id: int | None = None,
        *,
        migrated: bool = False,
        service_scale: float = 1.0,
    ) -> bool: ...

    def expected_wait(self) -> float: ...

    def utilization(self) -> float: ...

    def drain(self) -> None: ...


class VanillaLoadBalancer:
    """WRR + sticky sessions + passive health checks, transiency-blind."""

    def __init__(
        self,
        recorder: "LatencyRecorder",
        *,
        health_check_seconds: float = 5.0,
        retries: int = 1,
    ) -> None:
        if health_check_seconds < 0 or retries < 0:
            raise ValueError("invalid balancer parameters")
        self.recorder = recorder
        self.health_check_seconds = float(health_check_seconds)
        self.retries = int(retries)
        self.backends: dict[int, Backend] = {}
        self.wrr = SmoothWeightedRoundRobin()
        self.sessions = SessionTable()
        # Backend id -> time at which a failed health check will remove it.
        self._pending_removal: dict[int, float] = {}

    # ---------------------------------------------------------------- config
    def add_backend(self, backend: Backend) -> None:
        """Register a backend, weighted by its capacity."""
        self.backends[backend.server_id] = backend
        self.wrr.set_weight(backend.server_id, backend.capacity_rps)

    def remove_backend(self, backend_id: int) -> None:
        self.backends.pop(backend_id, None)
        self.wrr.remove(backend_id)
        self.sessions.evict_backend(backend_id)
        self._pending_removal.pop(backend_id, None)

    def set_weights(self, weights: dict[int, float]) -> None:
        """Online weight update (the wrapper SpotWeb adds around HAProxy)."""
        unknown = set(weights) - set(self.backends)
        if unknown:
            raise KeyError(f"unknown backends: {sorted(unknown)}")
        self.wrr.set_weights(weights)

    # --------------------------------------------------------------- routing
    def _note_failure(self, backend_id: int, now: float) -> None:
        """Passive health check: schedule removal after the check interval."""
        self._pending_removal.setdefault(
            backend_id, now + self.health_check_seconds
        )

    def _purge(self, now: float) -> None:
        due = [b for b, t in self._pending_removal.items() if t <= now]
        for backend_id in due:
            self.remove_backend(backend_id)

    def dispatch(
        self,
        now: float,
        session_id: int | None = None,
        *,
        service_scale: float = 1.0,
    ) -> bool:
        """Route one request; returns True when a backend accepted it.

        ``service_scale`` marks heavier request classes (long-running
        requests scale their service time); it is forwarded to the backend.
        """
        self._purge(now)
        tried: set[int] = set()

        # Sticky sessions first.
        if session_id is not None:
            bid = self.sessions.backend_of(session_id)
            if bid is not None and bid in self.backends:
                backend = self.backends[bid]
                if backend.submit(session_id, service_scale=service_scale):
                    return True
                tried.add(bid)
                if not backend.alive:
                    self._note_failure(bid, now)

        for _ in range(self.retries + 1):
            bid = self.wrr.pick(exclude=tried)
            if bid is None:
                break
            backend = self.backends[bid]
            if backend.submit(session_id, service_scale=service_scale):
                if session_id is not None:
                    self.sessions.assign(session_id, bid)
                return True
            tried.add(bid)
            if not backend.alive:
                self._note_failure(bid, now)
        self.recorder.record_dropped(now)
        return False

    # ------------------------------------------------------------- transiency
    def on_warning(self, backend_id: int, now: float) -> None:
        """Vanilla balancers ignore revocation warnings."""

    def serving_capacity(self) -> float:
        """Capacity of backends currently accepting traffic."""
        return sum(
            b.capacity_rps for b in self.backends.values() if b.accepting
        )

    def stranded_sessions(self) -> int:
        """Sessions still pinned to a backend that can no longer serve them.

        A session is stranded when its sticky assignment points at a dead
        or dropped backend.  The transiency-aware balancer's migration
        sweep should leave zero; the vanilla baseline strands every
        session of a revoked backend until a health check evicts it.  The
        scenario invariant packs read this at end of episode.
        """
        stranded = 0
        for bid, count in self.sessions.counts_by_backend().items():
            backend = self.backends.get(bid)
            if backend is None or not backend.alive:
                stranded += count
        return stranded
