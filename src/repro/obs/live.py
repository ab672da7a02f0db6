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
CLI telemetry flags, or run under a
:class:`~repro.obs.recording.Recording` holding an enabled bus (and the
enabled journal it streams).
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.obs.events import get_events
from repro.obs.metrics import get_metrics, prometheus_text, write_prometheus

if TYPE_CHECKING:
    from http.server import ThreadingHTTPServer

__all__ = [
    "TelemetryBus",
    "PromFileWriter",
    "MetricsServer",
    "get_bus",
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

    # ----------------------------------------------------------- subscribers
    def subscribe(self, fn: Callable[[dict], None]) -> Callable[[dict], None]:
        """Register a subscriber; returns it for chaining."""
        self._subscribers.append(fn)
        return fn

    # ------------------------------------------------------------ publishing
    def tick(self, t: float, interval: int | None = None) -> None:
        """Publish the frame of one sim-interval boundary.

        The frame holds the journal records appended since the last tick
        (cursoring on :meth:`EventLog.record_count`).  Records a ``pmap``
        sweep adopted from its cells go out in frames of their own, one
        per cell interval (see :func:`_frames`).  No-op while disabled.
        """
        if not self.enabled:
            return
        self._publish(float(t), None if interval is None else int(interval))

    def _publish(
        self, t: float, interval: int | None
    ) -> tuple[float, int | None]:
        """Publish the pending records; returns the last frame's stamp."""
        ev = get_events()
        count = ev.record_count()
        frames = _frames(ev.records_since(self._event_cursor), t, interval)
        self._event_cursor = count
        for frame in frames:
            for fn in self._subscribers:
                fn(frame)
        return frames[-1]["t"], frames[-1]["interval"]

    def flush(self, t: float | None = None) -> None:
        """Publish any pending records (final partial frame at end of run).

        Subscribers may journal while handling a frame (anomaly flags,
        which they do not watch themselves); those records follow in one
        more frame, stamped as the last frame before them, so every
        record of the run reaches the subscribers.
        """
        if not self.enabled:
            return
        ev = get_events()
        stamp = self._publish(ev.clock if t is None else float(t), ev.interval)
        while self._event_cursor < ev.record_count():
            stamp = self._publish(*stamp)


def _frames(records: list[dict], t: float, interval: int | None) -> list[dict]:
    """The frames that carry one tick's records, in journal order.

    Records adopted from a ``pmap`` cell (tagged ``attrs["cell"]``) were
    journaled under the cell's clock; the caller's clock never advances
    during a sweep.  They go out in frames of one cell interval each,
    stamped with the ``t`` and ``interval`` of the last record a frame
    carries.  The other records share one frame stamped ``t`` /
    ``interval``, as does a tick without records.
    """
    frames: list[dict] = []
    key = None
    for rec in records:
        cell = rec["attrs"].get("cell")
        rec_key = None if cell is None else (cell, rec["interval"])
        if not frames or rec_key != key:
            frames.append({"t": t, "interval": interval, "events": []})
            key = rec_key
        frame = frames[-1]
        frame["events"].append(rec)
        if rec_key is not None:
            frame["t"], frame["interval"] = float(rec["t"]), rec["interval"]
    return frames or [{"t": t, "interval": interval, "events": []}]


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
    registry in force; the cache refreshes when the server is subscribed
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
