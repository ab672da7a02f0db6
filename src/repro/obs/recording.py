"""The recording a command, scenario episode or sweep cell runs under.

A :class:`Recording` holds the parts instrumented code reaches through
the process-global accessors — the span tracer
(:func:`~repro.obs.tracer.get_tracer`), the event journal
(:func:`~repro.obs.events.get_events`), the telemetry bus
(:func:`~repro.obs.live.get_bus`) and the metrics registry
(:func:`~repro.obs.metrics.get_metrics`) — plus the flight recorder,
if one is armed.  Used as a context manager it puts its parts in force
for its extent and restores the recording in force before it on every
exit, normal or not.  Nothing else installs parts, so the accessors
stay one global read.

A recording made with ``Recording(...)`` gets fresh parts (all off)
except those given; :meth:`Recording.replace` makes one that shares
every part of an existing recording except those given.  The four kinds
the code makes:

- **a command's** (``repro run``, ``top``, ``scenarios run``): fresh
  parts, switched on as the flags ask;
- **a cluster scenario episode's**: a private journal, metrics registry
  and enabled bus, sharing the caller's tracer and recorder;
- **a portfolio scenario episode's**: a private journal and disabled
  bus, sharing the rest;
- **a** ``pmap`` **cell's**: a private journal, a private metrics
  registry and a subscriber-less bus enabled as the caller's, and, when
  the caller has a recorder, a recorder that holds its bundles for the
  caller to write; the caller folds in its journal, metrics and bundles,
  and it shares the tracer.

A recording *arms* its recorder when the recording it replaced did not
hold that recorder.  An exception other than ``SystemExit`` that leaves
the recording which armed its recorder flushes the recording's bus (a
sweep's adopted records reach the recorder only on a tick or a flush)
and dumps a ``crash`` bundle before the previous recording is restored
and the exception goes on; an error raised while flushing is noted in
the bundle's trigger and never replaces the original exception.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import repro.obs.events
import repro.obs.live
import repro.obs.metrics
import repro.obs.tracer
from repro.obs.events import EventLog, get_events
from repro.obs.flightrec import FlightRecorder
from repro.obs.live import TelemetryBus, get_bus
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.tracer import Tracer, get_tracer

__all__ = ["Recording", "current"]


@dataclass(eq=False)
class Recording:
    """The tracer, journal, bus, metrics registry and recorder of one extent."""

    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))
    events: EventLog = field(default_factory=EventLog)
    bus: TelemetryBus = field(default_factory=TelemetryBus)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    flightrec: FlightRecorder | None = None
    _previous: Recording | None = field(default=None, init=False, repr=False)

    def replace(self, **parts) -> Recording:
        """A recording sharing this one's parts except ``parts``."""
        return dataclasses.replace(self, **parts)

    def __enter__(self) -> Recording:
        self._previous = _CURRENT
        _install(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        previous, self._previous = self._previous, None
        try:
            if (
                exc_type is not None
                and not issubclass(exc_type, SystemExit)
                and self.flightrec is not None
                and self.flightrec is not previous.flightrec
            ):
                trigger = {"exception": exc_type.__name__, "message": str(exc)}
                try:
                    self.bus.flush()
                except Exception as err:  # spotlint: disable=SW006 -- noted, not raised
                    trigger["flush_error"] = f"{type(err).__name__}: {err}"
                self.flightrec.dump("crash", trigger=trigger)
        finally:
            _install(previous)


def _install(recording: Recording) -> None:
    global _CURRENT
    _CURRENT = recording
    repro.obs.tracer._TRACER = recording.tracer
    repro.obs.events._EVENTS = recording.events
    repro.obs.live._BUS = recording.bus
    repro.obs.metrics._METRICS = recording.metrics


# The process's base recording: the modules' own (disabled) parts.
_CURRENT = Recording(
    tracer=get_tracer(), events=get_events(), bus=get_bus(), metrics=get_metrics()
)


def current() -> Recording:
    """The recording in force."""
    return _CURRENT
