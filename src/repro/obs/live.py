"""Streaming telemetry plane: the in-process TelemetryBus and its sinks.

Batch observability (:mod:`repro.obs.metrics` snapshots, journal files)
answers questions *after* a run; this module answers them *during* one.
Time-owning drivers — the interval cost simulator, the SLO engine at
interval closes — call :meth:`TelemetryBus.tick` at sim-interval
boundaries, and the bus publishes one **frame** per tick to in-process
subscribers: the flight recorder (:mod:`repro.obs.flightrec`), streaming
anomaly detectors (:mod:`repro.obs.anomaly`), the live dashboard
(:mod:`repro.obs.dash`), the OpenMetrics scrape endpoint
(:class:`MetricsServer`) and the Prometheus textfile
(:class:`PromFileWriter`).

A frame is ``{"t", "interval", "events"}``: the sim time and interval
of the tick and the journal records (``spotweb-events/1``) appended
since the previous one.  The bus publishes a frame even when
``events`` is empty, so every frame is a boundary subscribers may
refresh on.  Concatenated, the frames' records are the journal, so two
identical-seed runs publish identical frames.

The bus is off by default behind the shared no-op pattern: when
disabled, :meth:`~TelemetryBus.tick` is a single attribute check, so
tier-1 runtime and bitwise run outputs are unchanged.  Opt in with the
CLI telemetry flags or :func:`enable_telemetry`.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.obs.events import enable_events, events_enabled, get_events
from repro.obs.metrics import get_metrics, prometheus_text, write_prometheus

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

__all__ = [
    "TelemetryBus",
    "PromFileWriter",
    "MetricsServer",
    "get_bus",
    "set_bus",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry_enabled",
]


class TelemetryBus:
    """Publishes one sim-time-stamped frame per tick to subscribers.

    Subscribers are plain callables ``fn(frame: dict) -> None`` invoked
    synchronously, in subscription order, on the ticking thread — so a
    subscriber's view of the stream is deterministic and totally ordered.
    Subscribers must not mutate the frame they receive (it is shared).
    """

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self._subscribers: list[Callable[[dict], None]] = []
        self._event_cursor = 0
        self._event_log_id: int | None = None

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
    def tick(self, t: float, interval: int | None = None) -> None:
        """Publish the frame of one sim-interval boundary.

        The frame holds the journal records appended since the last tick
        (cursoring on :meth:`EventLog.record_count`; a swapped log object
        or a shrunk count means the journal restarted and the cursor
        goes back to zero).  No-op while disabled.
        """
        if not self.enabled:
            return
        ev = get_events()
        count = ev.record_count()
        if id(ev) != self._event_log_id or count < self._event_cursor:
            self._event_log_id = id(ev)
            self._event_cursor = 0
        frame = {
            "t": float(t),
            "interval": None if interval is None else int(interval),
            "events": ev.records_since(self._event_cursor),
        }
        self._event_cursor = count
        for fn in self._subscribers:
            fn(frame)

    def flush(self, t: float | None = None) -> None:
        """Publish any pending records (final partial frame at end of run).

        Subscribers may journal while handling a frame (anomaly flags,
        which they do not watch themselves); those records follow in one
        more frame, so every record of the run reaches the subscribers.
        """
        if not self.enabled:
            return
        ev = get_events()
        self.tick(ev.clock if t is None else t, ev.interval)
        while self._event_cursor < ev.record_count():
            self.tick(ev.clock if t is None else t, ev.interval)

    def reset(self) -> None:
        """Restart the stream at the head of the journal."""
        self._event_cursor = 0
        self._event_log_id = None


class PromFileWriter:
    """Bus subscriber that refreshes a Prometheus textfile every frame.

    Each frame re-exports the current registry state atomically
    (:func:`repro.obs.metrics.write_prometheus`), so an external scraper
    polling the path sees a fresh, never-torn file at every sim interval
    instead of only at end of run.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def __call__(self, frame: dict) -> None:
        write_prometheus(self.path, get_metrics())


class MetricsServer:
    """Live OpenMetrics scrape endpoint on a background thread.

    Serves ``GET /metrics`` (and ``/``) from a cached render of the
    global registry; the cache refreshes when the server is subscribed
    to a ticking bus (every frame) or via :meth:`refresh`.  Render and
    serve are decoupled so scrapes never race a half-updated registry:
    the handler only ever reads the cached text under a lock.

    ``port=0`` binds an ephemeral port; read the bound one from
    ``.port`` after :meth:`start`.
    """

    def __init__(self, port: int = 0, *, host: str = "127.0.0.1") -> None:
        self.host = host
        self.port = int(port)
        self._lock = threading.Lock()
        self._text = "# EOF\n"
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def refresh(self) -> None:
        """Re-render the registry into the serve cache."""
        text = prometheus_text(get_metrics(), openmetrics=True)
        if not text:
            text = "# EOF\n"
        with self._lock:
            self._text = text

    def __call__(self, frame: dict) -> None:
        """Bus subscriber hook: refresh the cache at each frame."""
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
_BUS = TelemetryBus()


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

    Frames carry the events journal, so this also enables the global
    event log if it is not already on.
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
