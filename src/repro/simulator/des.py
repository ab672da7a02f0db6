"""Minimal discrete-event simulation engine.

A binary-heap event loop with cancellable events and a monotonic clock.
Deliberately tiny: the cluster and cloud models own their state machines and
just schedule callbacks here.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.devtools.contracts import field_units, units
from repro.obs import get_events, get_metrics, get_tracer

__all__ = ["Event", "Simulator"]


class Event:
    """A scheduled callback.  Cancel with :meth:`cancel` before it fires."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6g}, {getattr(self.fn, '__name__', self.fn)}, {state})"


@field_units(_now="s")
class Simulator:
    """Event loop with a monotonic simulated clock (seconds)."""

    @units("s")
    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[Event] = []
        self._seq = itertools.count()
        self._processed = 0
        #: Bumped by every :class:`~repro.simulator.server.SimServer`
        #: lifecycle change on this clock; the fluid tier rebuilds its
        #: columns only when it moves.
        self.fleet_epoch = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for e in self._heap if not e.cancelled)

    @property
    def processed(self) -> int:
        return self._processed

    @units("s")
    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        return self.schedule_at(self._now + delay, fn, *args)

    @units("s")
    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self._now:
            raise ValueError("cannot schedule into the past")
        event = Event(float(time), next(self._seq), fn, args)
        heapq.heappush(self._heap, event)
        return event

    @units("s")
    def advance(self, t_end: float) -> int:
        """Process events with ``time <= t_end`` without tracer overhead.

        The hybrid engine calls this once per fluid step — thousands of
        times per simulated run — so unlike :meth:`run_until` it opens no
        tracer span and touches no metrics counter per call.  Event-journal
        clock upkeep is preserved.  Returns the number of events processed.
        """
        if t_end < self._now:
            raise ValueError("t_end is in the past")
        before = self._processed
        ev = get_events()
        evented = ev.enabled
        heap = self._heap
        while heap and heap[0].time <= t_end:
            event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self._now = event.time
            if evented:
                ev.clock = event.time
            self._processed += 1
            event.fn(*event.args)
        self._now = t_end
        if evented:
            ev.clock = t_end
        return self._processed - before

    @units("s")
    def run_until(self, t_end: float) -> None:
        """Process events with ``time <= t_end``; clock ends at ``t_end``."""
        if t_end < self._now:
            raise ValueError("t_end is in the past")
        before = self._processed
        ev = get_events()
        evented = ev.enabled  # hoisted: the loop body is the hot path
        with get_tracer().span("des.run", t_end=t_end) as sp:
            while self._heap and self._heap[0].time <= t_end:
                event = heapq.heappop(self._heap)
                if event.cancelled:
                    continue
                self._now = event.time
                if evented:
                    ev.clock = event.time
                self._processed += 1
                event.fn(*event.args)
            self._now = t_end
            if evented:
                ev.clock = t_end
            sp.tag(events=self._processed - before)
        get_metrics().counter("des.events").inc(self._processed - before)

    def run(self) -> None:
        """Process every pending event (careful with self-rescheduling)."""
        before = self._processed
        ev = get_events()
        evented = ev.enabled
        with get_tracer().span("des.run") as sp:
            while self._heap:
                event = heapq.heappop(self._heap)
                if event.cancelled:
                    continue
                self._now = event.time
                if evented:
                    ev.clock = event.time
                self._processed += 1
                event.fn(*event.args)
            sp.tag(events=self._processed - before)
        get_metrics().counter("des.events").inc(self._processed - before)
