"""Streaming telemetry plane: the in-process TelemetryBus and its sinks.

Batch observability (:mod:`repro.obs.metrics` snapshots, journal files)
answers questions *after* a run; this module answers them *during* one.
Time-owning drivers — the interval cost simulator, the SLO engine at
interval closes — call :meth:`TelemetryBus.tick` at sim-interval
boundaries, and the bus publishes incremental **deltas** to in-process
subscribers: the flight recorder (:mod:`repro.obs.flightrec`), streaming
anomaly detectors (:mod:`repro.obs.anomaly`), the live dashboard
(:mod:`repro.obs.dash`), the OpenMetrics scrape endpoint
(:class:`MetricsServer`), and file sinks (:class:`DeltaWriter`,
:class:`PromFileWriter`).

Delta stream schema (``spotweb-telemetry/1``)
---------------------------------------------
Every delta is a JSON object with ``seq`` (bus-wide, strictly
increasing), ``t`` (sim seconds), ``interval`` (or ``None``), and a
``type`` discriminator.  One :meth:`~TelemetryBus.tick` publishes, in
order:

- ``{"type": "events", "events": [...]}`` — journal records appended
  since the previous tick (``spotweb-events/1`` record shape), when any;
- ``{"type": "slo", "points": [...]}`` — the ``slo.interval`` points
  among those events (``interval``/``t``/``requests``/``compliance``/
  ``burn``/``p50``/``p95``/``p99``), when any;
- ``{"type": "metrics", "changed": {...}}`` — registry values that
  changed since last published, when metric publishing is on.  Wall-clock
  histograms (``*_ms`` names) collapse to ``{"count": n}`` so the stream
  stays a pure function of ``(config, seed)``;
- ``{"type": "tick"}`` — always, as the frame boundary subscribers key
  refreshes on.

Because every field is sim-time-derived, two identical-seed runs publish
**byte-identical** delta streams (:func:`delta_line` is the canonical
serialization) — locked by test, same contract as the events journal.

The bus is off by default behind the shared no-op pattern: when
disabled, :meth:`~TelemetryBus.tick` is a single attribute check, so
tier-1 runtime and bitwise run outputs are unchanged.  Opt in with the
CLI telemetry flags, :func:`enable_telemetry`, or ``SPOTWEB_TELEMETRY=1``.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.obs.events import enable_events, events_enabled, get_events
from repro.obs.metrics import (
    MetricsRegistry,
    get_metrics,
    prometheus_text,
    write_prometheus,
)

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

__all__ = [
    "TELEMETRY_SCHEMA",
    "SLO_POINT_FIELDS",
    "delta_line",
    "TelemetryBus",
    "DeltaWriter",
    "PromFileWriter",
    "MetricsServer",
    "get_bus",
    "set_bus",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry_enabled",
]

TELEMETRY_SCHEMA = "spotweb-telemetry/1"

#: Attrs copied from ``slo.interval`` journal events into ``slo`` deltas.
SLO_POINT_FIELDS = ("requests", "compliance", "burn", "p50", "p95", "p99")


def delta_line(delta: dict) -> str:
    """The canonical one-line JSON serialization of a delta.

    Sorted keys and default separators, so equal deltas serialize to
    equal bytes — the unit the byte-identical-stream contract is stated
    in.
    """
    return json.dumps(delta, sort_keys=True)


class TelemetryBus:
    """Publishes sim-time-stamped telemetry deltas to subscribers.

    Subscribers are plain callables ``fn(delta: dict) -> None`` invoked
    synchronously, in subscription order, on the ticking thread — so a
    subscriber's view of the stream is deterministic and totally ordered.
    Subscribers must not mutate the delta they receive (it is shared).

    ``publish_metrics=False`` drops ``metrics`` deltas entirely; scenario
    episodes use it because the process-global registry accumulates
    across episodes, and the event-only stream is what is a pure function
    of the episode ``(spec, seed)``.
    """

    def __init__(
        self, *, enabled: bool = False, publish_metrics: bool = True
    ) -> None:
        self.enabled = bool(enabled)
        self.publish_metrics = bool(publish_metrics)
        self._subscribers: list[Callable[[dict], None]] = []
        self._seq = 0
        self._event_cursor = 0
        self._event_log_id: int | None = None
        self._last_metrics: dict = {}

    # ----------------------------------------------------------- subscribers
    def subscribe(self, fn: Callable[[dict], None]) -> Callable[[dict], None]:
        """Register a subscriber; returns it for chaining."""
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Callable[[dict], None]) -> None:
        """Remove a subscriber (no-op if not subscribed)."""
        if fn in self._subscribers:
            self._subscribers.remove(fn)

    # ------------------------------------------------------------ publishing
    def _publish(self, delta: dict) -> None:
        delta["seq"] = self._seq
        self._seq += 1
        for fn in self._subscribers:
            fn(delta)

    def tick(self, t: float, interval: int | None = None) -> None:
        """Publish the deltas for one sim-interval boundary.

        Drains journal records appended since the last tick (cursoring on
        :meth:`EventLog.record_count`; a swapped log object or a shrunk
        count means the journal restarted and the cursor goes back to
        zero), derives the ``slo`` point delta from them, diffs the
        metrics registry, and closes the frame with a ``tick`` delta.
        No-op while disabled.
        """
        if not self.enabled:
            return
        t = float(t)
        interval = None if interval is None else int(interval)
        ev = get_events()
        count = ev.record_count()
        if id(ev) != self._event_log_id or count < self._event_cursor:
            self._event_log_id = id(ev)
            self._event_cursor = 0
        new = ev.records_since(self._event_cursor)
        self._event_cursor = count
        if new:
            self._publish(
                {"type": "events", "t": t, "interval": interval, "events": new}
            )
            points = [
                {
                    "interval": rec["interval"],
                    "t": rec["t"],
                    **{
                        key: rec["attrs"][key]
                        for key in SLO_POINT_FIELDS
                        if key in rec["attrs"]
                    },
                }
                for rec in new
                if rec["kind"] == "slo.interval"
            ]
            if points:
                self._publish(
                    {
                        "type": "slo",
                        "t": t,
                        "interval": interval,
                        "points": points,
                    }
                )
        if self.publish_metrics:
            changed = self._changed_metrics()
            if changed:
                self._publish(
                    {
                        "type": "metrics",
                        "t": t,
                        "interval": interval,
                        "changed": changed,
                    }
                )
        self._publish({"type": "tick", "t": t, "interval": interval})

    def _changed_metrics(self) -> dict:
        """Registry values that differ from the last published state.

        Histograms whose name carries the wall-clock ``_ms`` suffix
        collapse to their sample count: the count is deterministic (one
        sample per solve), the latency statistics are not, and only
        deterministic values may enter the delta stream.
        """
        changed: dict = {}
        for name, value in get_metrics().snapshot().items():
            if name.endswith("_ms") and isinstance(value, dict):
                value = {"count": value["count"]}
            if self._last_metrics.get(name) != value:
                changed[name] = value
                self._last_metrics[name] = value
        return changed

    def flush(self, t: float | None = None) -> None:
        """Publish any pending deltas (final partial frame at end of run)."""
        if not self.enabled:
            return
        ev = get_events()
        self.tick(ev.clock if t is None else t, ev.interval)

    def reset(self) -> None:
        """Restart the stream: seq, event cursor, and metrics diff state."""
        self._seq = 0
        self._event_cursor = 0
        self._event_log_id = None
        self._last_metrics = {}


class DeltaWriter:
    """Bus subscriber that accumulates the delta stream as JSONL lines.

    ``write`` exports the stream schema-tagged (``spotweb-telemetry/1``
    header line, then one delta per line) — the artifact the
    byte-identical-stream test compares across identical-seed runs.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []

    def __call__(self, delta: dict) -> None:
        self.lines.append(delta_line(delta))

    def text(self) -> str:
        header = json.dumps({"schema": TELEMETRY_SCHEMA, "kind": "header"})
        return "\n".join([header, *self.lines]) + "\n"

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.text(), encoding="utf-8")
        return path


class PromFileWriter:
    """Bus subscriber that refreshes a Prometheus textfile every frame.

    On each ``tick`` delta the current registry state is re-exported
    atomically (:func:`repro.obs.metrics.write_prometheus`), so an
    external scraper polling the path sees a fresh, never-torn file at
    every sim interval instead of only at end of run.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        prefix: str = "spotweb_",
        openmetrics: bool = False,
    ) -> None:
        self.path = Path(path)
        self.prefix = prefix
        self.openmetrics = openmetrics

    def __call__(self, delta: dict) -> None:
        if delta.get("type") == "tick":
            write_prometheus(
                self.path,
                get_metrics(),
                prefix=self.prefix,
                openmetrics=self.openmetrics,
            )


class MetricsServer:
    """Live OpenMetrics scrape endpoint on a background thread.

    Serves ``GET /metrics`` (and ``/``) from a cached render of the
    registry; the cache refreshes when the server is subscribed to a
    ticking bus (every ``tick`` delta) or via :meth:`refresh`.  Render
    and serve are decoupled so scrapes never race a half-updated
    registry: the handler only ever reads the cached text under a lock.

    ``port=0`` binds an ephemeral port; read the bound one from
    ``.port`` after :meth:`start`.
    """

    def __init__(
        self,
        port: int = 0,
        *,
        host: str = "127.0.0.1",
        registry: MetricsRegistry | None = None,
        prefix: str = "spotweb_",
    ) -> None:
        self.host = host
        self.port = int(port)
        self.prefix = prefix
        self._registry = registry
        self._lock = threading.Lock()
        self._text = "# EOF\n"
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def refresh(self) -> None:
        """Re-render the registry into the serve cache."""
        registry = self._registry if self._registry is not None else get_metrics()
        text = prometheus_text(registry, prefix=self.prefix, openmetrics=True)
        if not text:
            text = "# EOF\n"
        with self._lock:
            self._text = text

    def __call__(self, delta: dict) -> None:
        """Bus subscriber hook: refresh the cache at each frame."""
        if delta.get("type") == "tick":
            self.refresh()

    def text(self) -> str:
        """The currently cached OpenMetrics payload."""
        with self._lock:
            return self._text

    def start(self) -> "MetricsServer":
        """Bind the socket and serve from a daemon thread."""
        if self._server is not None:
            return self
        # http.server brings email, http.client and ssl with it: load it
        # when an endpoint starts, not with every run that imports obs.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path not in ("/metrics", "/"):
                    self.send_error(404, "only /metrics is served")
                    return
                body = outer.text().encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "application/openmetrics-text; version=1.0.0; "
                    "charset=utf-8",
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format: str, *args) -> None:
                # Scrapes must not spam the simulation's stdout.
                pass

        self._server = ThreadingHTTPServer((self.host, self.port), _Handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        self.refresh()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="spotweb-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._server = None
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"


# ---------------------------------------------------------------------- global
def _enabled_from_env() -> bool:
    return os.environ.get("SPOTWEB_TELEMETRY", "0") not in ("", "0")


_BUS = TelemetryBus(enabled=_enabled_from_env())


def get_bus() -> TelemetryBus:
    """The process-global telemetry bus (disabled unless opted in)."""
    return _BUS


def set_bus(bus: TelemetryBus) -> TelemetryBus:
    """Replace the global bus (tests, scenario episodes); returns the old."""
    global _BUS
    old, _BUS = _BUS, bus
    return old


def enable_telemetry() -> TelemetryBus:
    """Switch the global bus on (fresh stream state).

    Telemetry deltas are derived from the events journal, so this also
    enables the global event log if it is not already on.
    """
    _BUS.enabled = True
    _BUS.reset()
    if not events_enabled():
        enable_events()
    return _BUS


def disable_telemetry() -> TelemetryBus:
    """Switch the global bus off; keeps subscribers attached."""
    _BUS.enabled = False
    return _BUS


def telemetry_enabled() -> bool:
    return _BUS.enabled
