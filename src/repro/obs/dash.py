"""`repro top`: live ASCII dashboard state and rendering.

:class:`DashState` is a telemetry-bus subscriber that folds the frames
(:mod:`repro.obs.live`) into the current operator view — fleet
size by market, demand vs. capacity, SLO percentile/burn history,
cost, open revocation warnings, anomaly flags.  :func:`render_dash`
turns one state into a deterministic text frame (sparklines and tables
from :mod:`repro.textfmt`), and :class:`DashRenderer` repaints a stream
every N frames for the live ``python -m repro top`` mode.

State and rendering are pure functions of the frames, so the
``--once`` snapshot mode is as deterministic as the journal itself; the
only nondeterministic datum — last solver wall-time — is *passed in* by
the live CLI (``solve_ms=``) and rendered as ``-`` when absent.
"""

from __future__ import annotations

import sys
from collections import deque

from repro.textfmt import format_table, sparkline

__all__ = [
    "HISTORY",
    "DashState",
    "render_dash",
    "DashRenderer",
]

#: Sparkline length: the dashboard keeps this many SLO intervals.
HISTORY = 24


class DashState:
    """Folds telemetry frames into the current dashboard view.

    Subscribe to a bus (or feed frames by calling it); every field is a
    plain value derived from sim-time-stamped records, so two
    identical-seed runs hold identical states at every frame.
    """

    def __init__(self) -> None:
        self.t = 0.0
        self.interval: int | None = None
        self.demand_rps = 0.0
        self.capacity_rps = 0.0
        self.servers = 0
        self.shortfall_rps = 0.0
        self.revocations = 0
        self.by_market: dict[str, int] = {}
        self.p99: deque[float] = deque(maxlen=HISTORY)
        self.burn: deque[float] = deque(maxlen=HISTORY)
        self.compliance: deque[float] = deque(maxlen=HISTORY)
        self.requests = 0
        self.cost_total = 0.0
        self.cost_last = 0.0
        self.open_warnings = 0
        self.warnings = 0
        self.anomalies: list[dict] = []

    def __call__(self, frame: dict) -> None:
        for rec in frame["events"]:
            self._fold_event(rec)
        self.t = float(frame["t"])
        if frame["interval"] is not None:
            self.interval = int(frame["interval"])

    def _fold_event(self, rec: dict) -> None:
        kind = rec["kind"]
        attrs = rec["attrs"]
        if kind == "slo.interval":
            self.p99.append(float(attrs.get("p99", 0.0)))
            self.burn.append(float(attrs.get("burn", 0.0)))
            self.compliance.append(float(attrs.get("compliance", 0.0)))
            self.requests += int(attrs.get("requests", 0))
        elif kind == "interval.plan":
            self.demand_rps = float(attrs.get("demand_rps", self.demand_rps))
            self.capacity_rps = float(
                attrs.get("capacity_rps", self.capacity_rps)
            )
            self.servers = int(attrs.get("servers", self.servers))
            self.shortfall_rps = float(attrs.get("shortfall_rps", 0.0))
            self.revocations += int(attrs.get("revoked", 0))
            cost = float(attrs.get("cost", 0.0))
            self.cost_last = cost
            self.cost_total += cost
        elif kind == "telemetry.fleet":
            self.servers = int(attrs.get("servers", self.servers))
            by_market = attrs.get("by_market")
            if isinstance(by_market, dict):
                self.by_market = {
                    str(market): int(count)
                    for market, count in by_market.items()
                }
        elif kind == "warning.issued":
            self.open_warnings += 1
            self.warnings += 1
        elif kind == "warning.resolved":
            self.open_warnings = max(0, self.open_warnings - 1)
        elif kind == "telemetry.anomaly":
            self.anomalies.append(
                {"t": rec["t"], "interval": rec["interval"], **attrs}
            )


def _spark(values: deque[float]) -> str:
    return sparkline(list(values)) if values else "-"


def _last(values: deque[float]) -> str:
    return f"{values[-1]:.3f}" if values else "-"


def render_dash(state: DashState, *, solve_ms: float | None = None) -> str:
    """One deterministic text frame of the dashboard.

    ``solve_ms`` is the only wall-clock datum on the board; the live CLI
    passes the last optimizer latency, the ``--once`` snapshot mode
    leaves it ``None`` and the cell renders ``-``.
    """
    interval = "-" if state.interval is None else str(state.interval)
    fleet = (
        " ".join(
            f"{market}={count}"
            for market, count in sorted(state.by_market.items())
        )
        or "-"
    )
    solve = "-" if solve_ms is None else f"{solve_ms:.1f} ms"
    rows = [
        ("demand", f"{state.demand_rps:.0f} req/s"),
        ("capacity", f"{state.capacity_rps:.0f} req/s"),
        ("servers", f"{state.servers} ({fleet})"),
        ("shortfall", f"{state.shortfall_rps:.0f} req/s"),
        ("p99", f"{_last(state.p99)} s  {_spark(state.p99)}"),
        ("burn", f"{_last(state.burn)}  {_spark(state.burn)}"),
        ("compliance", f"{_last(state.compliance)}  {_spark(state.compliance)}"),
        ("requests", str(state.requests)),
        ("cost", f"{state.cost_last:.4f} last / {state.cost_total:.4f} total usd"),
        ("warnings", f"{state.open_warnings} open / {state.warnings} total"),
        ("revocations", str(state.revocations)),
        ("anomalies", str(len(state.anomalies))),
        ("last solve", solve),
    ]
    lines = [
        f"spotweb top  t={state.t:.0f}s  interval={interval}",
        format_table(("signal", "value"), rows),
    ]
    if state.anomalies:
        recent = state.anomalies[-3:]
        lines.append(
            "recent anomalies: "
            + "; ".join(
                f"{a.get('series')}/{a.get('detector')} t={a['t']:.0f} "
                f"score={a.get('score')}"
                for a in recent
            )
        )
    return "\n".join(lines)


class DashRenderer:
    """Bus subscriber that repaints a stream every ``every`` frames.

    Owns a :class:`DashState`, folds every frame into it, and on each
    Nth frame writes a fresh board — preceded by an ANSI clear-screen
    when the stream is a TTY, so the board repaints in place rather than
    scrolling.
    """

    def __init__(
        self, state: DashState | None = None, *, stream=None, every: int = 1
    ) -> None:
        self.state = state if state is not None else DashState()
        self.every = max(1, int(every))
        self._stream = stream
        self._frames = 0

    def __call__(self, frame: dict) -> None:
        self.state(frame)
        self._frames += 1
        if self._frames % self.every == 0:
            self.render()

    def render(self, *, solve_ms: float | None = None) -> None:
        """Write one frame to the stream (stdout when none was given)."""
        stream = self._stream if self._stream is not None else sys.stdout
        text = render_dash(self.state, solve_ms=solve_ms)
        if getattr(stream, "isatty", lambda: False)():
            stream.write("\x1b[2J\x1b[H")
        stream.write(text + "\n")
        stream.flush()
