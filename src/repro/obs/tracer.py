"""Structured span tracing for the SpotWeb control loop.

A :class:`Tracer` records **nested spans** — named, monotonic-clock-timed,
attribute-tagged intervals — across the hot seams of the system: the
controller's per-interval loop (observe → predict → solve → discretize →
actuate), the QP solver phases (setup / factorize / iterate), the DES event
loop, and the load balancer's warning → migrate → replace path.

Tracing is **off by default** and adds a single shared no-op context
manager per instrumented block when disabled, so the tier-1 runtime and the
bitwise experiment outputs are unchanged.  Opt in with ``--trace`` on the
CLI, or run under a :class:`~repro.obs.recording.Recording` holding an
enabled tracer.

Completed spans export to schema-tagged JSONL (``spotweb-trace/1``, the
same convention as the ``BENCH_*.json`` baselines): the first line is a
header record carrying the schema tag, every following line one span.
Timestamps are ``time.perf_counter`` offsets from the tracer's epoch — the
tracer never reads the wall clock, so it is safe inside the DES-owned
packages.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

__all__ = [
    "TRACE_SCHEMA",
    "Span",
    "NullSpan",
    "Tracer",
    "get_tracer",
    "write_trace",
    "load_trace",
    "validate_trace",
]

TRACE_SCHEMA = "spotweb-trace/1"

# Required keys of one exported span record, with their permitted types.
_SPAN_FIELDS: dict[str, tuple[type, ...]] = {
    "id": (int,),
    "parent": (int, type(None)),
    "name": (str,),
    "depth": (int,),
    "start": (int, float),
    "dur": (int, float),
    "attrs": (dict,),
}


@dataclass
class Span:
    """One live (or finished) traced interval.

    ``start``/``dur`` are seconds on the ``time.perf_counter`` clock,
    relative to the owning tracer's epoch.  Attributes are free-form
    JSON-serializable tags; add more mid-span with :meth:`tag`.
    """

    tracer: "Tracer"
    id: int
    parent: int | None
    name: str
    depth: int
    start: float
    dur: float = 0.0
    attrs: dict = field(default_factory=dict)

    def tag(self, **attrs) -> "Span":
        """Attach attributes to the span (e.g. iteration counts at exit)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._finish(self)

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "depth": self.depth,
            "start": self.start,
            "dur": self.dur,
            "attrs": self.attrs,
        }


class NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def tag(self, **attrs) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = NullSpan()


class Tracer:
    """Collects nested spans on a monotonic clock.

    One tracer is in force at a time (see :func:`get_tracer`); instrumented
    code does::

        with get_tracer().span("controller.step", step=t) as sp:
            ...
            sp.tag(iterations=result.iterations)

    When ``enabled`` is ``False`` (the default for the global tracer),
    :meth:`span` returns a shared :class:`NullSpan` and records nothing —
    the disabled cost of an instrumented block is one method call.
    """

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._epoch_s = time.perf_counter()
        self._next_id = 0
        self._stack: list[Span] = []
        self._finished: list[Span] = []

    # ------------------------------------------------------------- recording
    def span(self, name: str, **attrs) -> Span | NullSpan:
        """Open a nested span; use as a context manager."""
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            tracer=self,
            id=self._next_id,
            parent=None if parent is None else parent.id,
            name=str(name),
            depth=0 if parent is None else parent.depth + 1,
            start=time.perf_counter() - self._epoch_s,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self._stack.append(sp)
        return sp

    def _finish(self, sp: Span) -> None:
        sp.dur = time.perf_counter() - self._epoch_s - sp.start
        # Tolerate mis-nested exits (exceptions unwinding several spans).
        while self._stack and self._stack[-1] is not sp:
            dangling = self._stack.pop()
            dangling.dur = time.perf_counter() - self._epoch_s - dangling.start
            self._finished.append(dangling)
        if self._stack:
            self._stack.pop()
        self._finished.append(sp)

    # --------------------------------------------------------------- results
    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def records(self) -> list[dict]:
        """Finished spans as JSON-ready records, ordered by start time."""
        spans = sorted(self._finished, key=lambda s: (s.start, s.id))
        return [s.to_record() for s in spans]

    def clear(self) -> None:
        """Drop every finished span and reset the id counter and epoch."""
        self._finished.clear()
        self._stack.clear()
        self._next_id = 0
        self._epoch_s = time.perf_counter()

    def write(self, path: str | Path) -> Path:
        """Export the finished spans as schema-tagged JSONL."""
        return write_trace(self.records(), path)


# --------------------------------------------------------------------- global
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-global tracer (disabled unless opted in)."""
    return _TRACER


# ----------------------------------------------------------------- trace files
def write_trace(records: Iterable[dict], path: str | Path) -> Path:
    """Write span records as JSONL with a schema header line."""
    path = Path(path)
    lines = [json.dumps({"schema": TRACE_SCHEMA, "kind": "header"})]
    lines.extend(json.dumps(rec, sort_keys=True) for rec in records)
    path.write_text("\n".join(lines) + "\n")
    return path


def load_trace(path: str | Path) -> list[dict]:
    """Load and validate a trace JSONL file; returns the span records."""
    raw = Path(path).read_text().splitlines()
    if not raw:
        raise ValueError("empty trace file")
    parsed: list[dict] = []
    line_numbers: list[int] = []
    for lineno, line in enumerate(raw, start=1):
        if not line.strip():
            continue
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"line {lineno}: trace file is not valid JSONL: {exc}"
            ) from exc
        line_numbers.append(lineno)
    if not parsed:
        raise ValueError("empty trace file")
    header, records = parsed[0], parsed[1:]
    if not isinstance(header, dict) or header.get("schema") != TRACE_SCHEMA:
        schema = header.get("schema") if isinstance(header, dict) else header
        raise ValueError(
            f"line {line_numbers[0]}: unknown trace schema: {schema!r}"
        )
    validate_trace(records, lines=line_numbers[1:])
    return records


def validate_trace(records: list[dict], *, lines: list[int] | None = None) -> None:
    """Check span records against the ``spotweb-trace/1`` schema.

    Raises ``ValueError`` on the first violation — a missing or mistyped
    field, a duplicate id, a parent reference to an unknown span, a negative
    duration, or a child starting before its parent — naming the offending
    field and, when ``lines`` maps record indices back to JSONL line
    numbers (as :func:`load_trace` passes), the source line.
    """

    def _loc(i: int) -> str:
        if lines is not None and i < len(lines):
            return f"line {lines[i]}: record {i}"
        return f"record {i}"

    seen: dict[int, tuple[dict, int]] = {}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ValueError(f"{_loc(i)} is not an object")
        for key, types in _SPAN_FIELDS.items():
            if key not in rec:
                raise ValueError(f"{_loc(i)} missing field {key!r}")
            if not isinstance(rec[key], types) or isinstance(rec[key], bool):
                raise ValueError(
                    f"{_loc(i)} field {key!r} has type "
                    f"{type(rec[key]).__name__}, expected "
                    + "/".join(t.__name__ for t in types)
                )
        if rec["dur"] < 0:
            raise ValueError(f"{_loc(i)} field 'dur' has negative duration")
        if rec["start"] < 0:
            raise ValueError(f"{_loc(i)} field 'start' has negative start")
        if rec["id"] in seen:
            raise ValueError(f"{_loc(i)} field 'id': duplicate span id {rec['id']}")
        seen[rec["id"]] = (rec, i)
    for rec, i in seen.values():
        parent_id = rec["parent"]
        if parent_id is None:
            continue
        entry = seen.get(parent_id)
        if entry is None:
            raise ValueError(
                f"{_loc(i)} field 'parent': span {rec['id']} references "
                f"unknown parent {parent_id}"
            )
        parent = entry[0]
        if rec["depth"] != parent["depth"] + 1:
            raise ValueError(
                f"{_loc(i)} field 'depth': span {rec['id']} depth "
                f"{rec['depth']} inconsistent with parent depth {parent['depth']}"
            )
        # Children must start within the parent interval (timer jitter slack).
        if rec["start"] + 1e-9 < parent["start"]:
            raise ValueError(
                f"{_loc(i)} field 'start': span {rec['id']} starts before "
                f"its parent {parent_id}"
            )
