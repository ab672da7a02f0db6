"""``repro.obs`` — zero-dependency observability for the control loop.

Batch and streaming layers, all off (or free) by default so tier-1
runtime and bitwise experiment outputs are unchanged.  Two record
formats: wall-clock spans (``spotweb-trace/1``) and the sim-time event
journal (``spotweb-events/1``), which the telemetry bus streams and the
flight recorder dumps windows of.

- :mod:`repro.obs.tracer` — nested span tracing across the controller's
  per-interval loop, the QP solver phases, the DES event loop, and the
  load balancer's warning path; exports ``spotweb-trace/1`` JSONL.
- :mod:`repro.obs.summarize` — the ``python -m repro trace summarize``
  analyzer: top spans, critical path, child coverage, and an ASCII
  per-interval timeline.
- :mod:`repro.obs.metrics` — an always-on (but feedback-free) registry of
  counters/gauges/histograms with a deterministic snapshot API and a
  Prometheus/OpenMetrics exporter.
- :mod:`repro.obs.events` — the sim-time domain-event journal:
  causally linked revocation-warning lifecycles, load-balancer and
  controller decisions, SLO state.
- :mod:`repro.obs.slo` — streaming fixed-bin latency digest plus the
  per-interval SLO-compliance / multi-window burn-rate engine feeding
  ``slo.interval`` / ``slo.alert`` events.
- :mod:`repro.obs.eventreport` — the ``python -m repro events`` analyzer:
  incident report, ASCII timeline, and diff of journals and bundles.
- :mod:`repro.obs.live` — the telemetry bus: one frame of new journal
  records per sim-interval tick, plus the Prometheus textfile and the
  live OpenMetrics scrape endpoint.
- :mod:`repro.obs.flightrec` — the flight recorder: a bounded ring
  buffer of recent frames dumped as journal windows on SLO alerts,
  invariant violations, or crashes.
- :mod:`repro.obs.anomaly` — streaming EWMA z-score and CUSUM detectors
  over SLO/cost series, emitting ``telemetry.anomaly`` journal events.
- :mod:`repro.obs.dash` — the ``python -m repro top`` dashboard: bus-fed
  state and deterministic ASCII rendering.
- :mod:`repro.obs.recording` — the :class:`~repro.obs.recording.Recording`
  a command, scenario episode or sweep cell runs under: it puts a
  tracer, journal, bus, metrics registry and flight recorder in force
  for its extent, restores the previous ones on every exit, and dumps a
  ``crash`` bundle when an exception leaves the recording that armed
  the recorder.

The package exports only the four accessors that instrumented code
calls, each one read of the part the recording in force installed;
everything else is imported from the submodule that defines it.
"""

from repro.obs.events import get_events
from repro.obs.live import get_bus
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer

__all__ = ["get_tracer", "get_events", "get_bus", "get_metrics"]
