"""Flight recorder: the journal's last window, dumped on incidents.

An aircraft-style black box for simulation runs: a
:class:`FlightRecorder` subscribes to the telemetry bus
(:mod:`repro.obs.live`) and keeps the last ``max_records`` frames inside
a sliding ``window_seconds`` of sim time.  When something goes wrong —
an SLO burn-rate alert fires (auto-detected in the frames), a scenario
invariant is violated, or the process crashes (see
:func:`install_crash_hooks`) — it dumps a **bundle** answering "what
happened in the last N sim-seconds before the incident".

A bundle is a window of the journal in the journal's own format
(``spotweb-events/1``): a header line ``{"schema", "kind": "header",
"reason", "t", "trigger", "records", "metrics"}``, then the buffered
frames' records in order.  ``metrics`` is the registry's
:meth:`~repro.obs.metrics.MetricsRegistry.sim_snapshot`.  Frames are a
pure function of ``(config, seed)``, so identical-seed runs dump
byte-identical bundles, and ``python -m repro events
validate|summarize|timeline|diff`` read bundles like journals.
"""

from __future__ import annotations

import sys
from collections import deque
from pathlib import Path

from repro.obs.events import write_events
from repro.obs.live import get_bus
from repro.obs.metrics import get_metrics

__all__ = [
    "FlightRecorder",
    "get_flightrec",
    "set_flightrec",
    "enable_flightrec",
    "disable_flightrec",
    "flightrec_enabled",
    "install_crash_hooks",
    "uninstall_crash_hooks",
]


class FlightRecorder:
    """Ring buffer of telemetry frames, dumped on incidents.

    Subscribe it to a bus (``bus.subscribe(recorder)``); it retains at
    most ``max_records`` frames no older than ``window_seconds`` of sim
    time behind the newest.  A ``slo.alert`` journal event arriving in
    the ``firing`` state triggers a dump immediately — the buffer still
    holds the pre-alert window at that point, which is exactly the
    forensic value.  A frame earlier than the newest buffered one starts
    a new window: sim time went back, so a new run began (the next
    scenario episode, the next serial sweep cell).

    Dump paths are deterministic (``flightrec_<n>_<reason>.jsonl`` under
    ``out_dir``, numbered in dump order), so identical-seed runs produce
    identical bundle files; written paths accumulate on :attr:`dumped`.
    """

    def __init__(
        self,
        *,
        enabled: bool = False,
        out_dir: str | Path = ".",
        max_records: int = 512,
        window_seconds: float = 120.0,
    ) -> None:
        if max_records < 1:
            raise ValueError("max_records must be at least 1")
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.enabled = bool(enabled)
        self.out_dir = Path(out_dir)
        self.window_seconds = float(window_seconds)
        self._buffer: deque[dict] = deque(maxlen=int(max_records))
        self._dumps = 0
        self.dumped: list[Path] = []

    def __call__(self, frame: dict) -> None:
        """Bus subscriber hook: buffer the frame, dump on firing alerts."""
        if not self.enabled:
            return
        t = float(frame["t"])
        if self._buffer and t < self._buffer[-1]["t"]:
            self._buffer.clear()
        self._buffer.append(frame)
        while self._buffer[0]["t"] < t - self.window_seconds:
            self._buffer.popleft()
        for rec in frame["events"]:
            if rec["kind"] == "slo.alert" and rec["attrs"].get("state") == "firing":
                self.dump(
                    "slo.alert",
                    trigger={
                        "kind": rec["kind"],
                        "t": rec["t"],
                        "interval": rec["interval"],
                        "id": rec["id"],
                        "cause": rec["cause"],
                        "attrs": rec["attrs"],
                    },
                )

    def buffered(self) -> list[dict]:
        """The frames currently retained, oldest first."""
        return list(self._buffer)

    def clear(self) -> None:
        """Drop the buffer (dump counter and written paths are kept)."""
        self._buffer.clear()

    def dump(
        self,
        reason: str,
        *,
        trigger: dict | None = None,
        path: str | Path | None = None,
    ) -> Path:
        """Write the buffered window as a bundle.

        ``reason`` states why the dump happened (``slo.alert``,
        ``invariant.violation``, ``crash``, or ad hoc); ``trigger``
        optionally carries the journal event or violation that pulled
        the cord, verbatim, so the bundle is self-describing.
        """
        self._dumps += 1
        records = [rec for frame in self._buffer for rec in frame["events"]]
        if path is None:
            safe = reason.replace(".", "_").replace("/", "_")
            path = self.out_dir / f"flightrec_{self._dumps:03d}_{safe}.jsonl"
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        write_events(
            records,
            path,
            reason=reason,
            t=float(self._buffer[-1]["t"]) if self._buffer else 0.0,
            trigger=trigger,
            records=len(records),
            metrics=get_metrics().sim_snapshot(),
        )
        self.dumped.append(path)
        return path


# ---------------------------------------------------------------------- global
_FLIGHTREC = FlightRecorder(enabled=False)


def get_flightrec() -> FlightRecorder:
    """The process-global flight recorder (disabled unless opted in)."""
    return _FLIGHTREC


def set_flightrec(recorder: FlightRecorder) -> FlightRecorder:
    """Replace the global recorder (tests); returns the old one."""
    global _FLIGHTREC
    old, _FLIGHTREC = _FLIGHTREC, recorder
    return old


def enable_flightrec(out_dir: str | Path = ".") -> FlightRecorder:
    """Arm the global recorder and attach it to the global bus.

    Scenario episodes additionally subscribe the armed recorder to
    their private per-episode bus, so episode incidents are captured
    even though episodes journal into a private log.
    """
    recorder = get_flightrec()
    recorder.enabled = True
    recorder.out_dir = Path(out_dir)
    bus = get_bus()
    bus.unsubscribe(recorder)
    bus.subscribe(recorder)
    return recorder


def disable_flightrec() -> FlightRecorder:
    """Disarm the global recorder and detach it from the global bus."""
    recorder = get_flightrec()
    recorder.enabled = False
    get_bus().unsubscribe(recorder)
    return recorder


def flightrec_enabled() -> bool:
    return get_flightrec().enabled


# ----------------------------------------------------------------- crash hooks
_ORIG_EXCEPTHOOK = None


def _crash_excepthook(exc_type, exc, tb) -> None:
    recorder = get_flightrec()
    if recorder.enabled:
        recorder.dump(
            "crash",
            trigger={
                "exception": exc_type.__name__,
                "message": str(exc),
            },
        )
    hook = _ORIG_EXCEPTHOOK if _ORIG_EXCEPTHOOK is not None else sys.__excepthook__
    hook(exc_type, exc, tb)


def install_crash_hooks() -> None:
    """Dump the armed recorder's buffer when the process dies unhappily.

    Wraps ``sys.excepthook`` so an uncaught exception dumps a ``crash``
    bundle before the original hook prints the traceback.
    """
    global _ORIG_EXCEPTHOOK
    if _ORIG_EXCEPTHOOK is None:
        _ORIG_EXCEPTHOOK = sys.excepthook
        sys.excepthook = _crash_excepthook


def uninstall_crash_hooks() -> None:
    """Restore the original excepthook."""
    global _ORIG_EXCEPTHOOK
    if _ORIG_EXCEPTHOOK is not None:
        sys.excepthook = _ORIG_EXCEPTHOOK
        _ORIG_EXCEPTHOOK = None
