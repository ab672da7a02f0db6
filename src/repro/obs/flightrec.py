"""Flight recorder: the journal's last window, dumped on incidents.

An aircraft-style black box for simulation runs: a
:class:`FlightRecorder` subscribes to the telemetry bus
(:mod:`repro.obs.live`) and keeps the last ``max_records`` frames inside
a sliding ``window_seconds`` of sim time, stretched to the newest few
frames when they lie further apart.  When something goes wrong —
an SLO burn-rate alert fires (auto-detected in the frames), a scenario
invariant is violated, or an exception leaves the recording that armed
the recorder (:mod:`repro.obs.recording`) — it dumps a **bundle**
answering "what happened in the last N sim-seconds before the incident".

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

from collections import deque
from pathlib import Path

from repro.obs.events import write_events
from repro.obs.metrics import get_metrics

__all__ = ["FlightRecorder"]

#: The fewest frames the window keeps, however far apart they lie.  A
#: cluster run ticks at every 30-s SLO interval close, so its default
#: 120-s window holds five frames and this changes nothing; an
#: interval-level run ticks every 3,600 s, and keeps its last four
#: intervals instead of one.
_MIN_FRAMES = 4


class FlightRecorder:
    """Ring buffer of telemetry frames, dumped on incidents.

    Subscribe it to a bus (``bus.subscribe(recorder)``); it retains at
    most ``max_records`` frames no older than ``window_seconds`` of sim
    time behind the newest, or the newest :data:`_MIN_FRAMES` frames
    when those span more.  A ``slo.alert`` journal event arriving in
    the ``firing`` state triggers a dump immediately — the buffer still
    holds the pre-alert window at that point, which is exactly the
    forensic value.  A frame earlier than the newest buffered one starts
    a new window: sim time went back, so a new run began (the next
    scenario episode).

    Dump paths are deterministic (``flightrec_<n>_<reason>.jsonl`` under
    ``out_dir``, numbered in write order), so identical-seed runs produce
    identical bundle files; written paths accumulate on :attr:`dumped`.
    A recorder without an ``out_dir`` (a ``pmap`` cell's) keeps each
    bundle as ``(header, records)`` on :attr:`held` instead; the caller
    writes them with :meth:`write`, in item order.
    """

    def __init__(
        self,
        *,
        out_dir: str | Path | None = None,
        max_records: int = 512,
        window_seconds: float = 120.0,
    ) -> None:
        if max_records < 1:
            raise ValueError("max_records must be at least 1")
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.max_records = int(max_records)
        self.window_seconds = float(window_seconds)
        self._buffer: deque[dict] = deque(maxlen=self.max_records)
        self._dumps = 0
        self.dumped: list[Path] = []
        self.held: list[tuple[dict, list[dict]]] = []

    def __call__(self, frame: dict) -> None:
        """Bus subscriber hook: buffer the frame, dump on firing alerts."""
        t = float(frame["t"])
        if self._buffer and t < self._buffer[-1]["t"]:
            self._buffer.clear()
        self._buffer.append(frame)
        while (
            len(self._buffer) > _MIN_FRAMES
            and self._buffer[0]["t"] < t - self.window_seconds
        ):
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

    def dump(self, reason: str, *, trigger: dict | None = None) -> Path | None:
        """Write (or, without an ``out_dir``, hold) the buffered window.

        ``reason`` states why the dump happened (``slo.alert``,
        ``invariant.violation``, ``crash``, or ad hoc); ``trigger``
        optionally carries the journal event or violation that pulled
        the cord, verbatim, so the bundle is self-describing.
        """
        records = [rec for frame in self._buffer for rec in frame["events"]]
        header = {
            "reason": reason,
            "t": float(self._buffer[-1]["t"]) if self._buffer else 0.0,
            "trigger": trigger,
            "records": len(records),
            "metrics": get_metrics().sim_snapshot(),
        }
        if self.out_dir is None:
            self.held.append((header, records))
            return None
        return self.write(header, records)

    def write(self, header: dict, records: list[dict]) -> Path:
        """Write one bundle under ``out_dir``, numbered in write order."""
        self._dumps += 1
        safe = header["reason"].replace(".", "_").replace("/", "_")
        path = self.out_dir / f"flightrec_{self._dumps:03d}_{safe}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        write_events(records, path, **header)
        self.dumped.append(path)
        return path
