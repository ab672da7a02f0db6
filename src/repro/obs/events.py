"""Sim-time domain-event journal for the SpotWeb *service* lifecycle.

Where :mod:`repro.obs.tracer` observes the **code** (wall-clock spans),
this module observes the **service**: revocation warnings, drains,
session migrations, replacement boots, admission-control flips,
reprovision requests, per-interval plans, and SLO state.  Events are
keyed by **simulation time** and interval — never the wall clock — so a
journal is a pure function of ``(config, seed)`` and composes with
spotgraph's determinism-taint rules: two identical-seed runs produce
byte-identical journals, serial or parallel.

Causal linkage
--------------
Every revocation warning opened with :meth:`EventLog.open_warning` gets
a journal-unique id (``w0``, ``w1``, ...).  The drain / migration /
replacement-boot / admission-control / reprovision events it triggers
carry that id in their ``cause`` field, and the warning is closed by a
``warning.resolved`` event whose ``outcome`` is one of
:data:`TERMINAL_OUTCOMES`:

- ``migrated`` — the backend was drained and its sessions moved before
  the kill (nothing was lost);
- ``completed`` — the backend died idle (nothing to migrate, nothing
  lost), or an interval-level revocation was replaced like-for-like;
- ``failed`` — in-flight requests were lost at the kill.

The journal is **off by default** behind a shared no-op sink: when
disabled, every instrumented site costs one method call (or one local
boolean check in the DES hot loop), so tier-1 runtime and bitwise
experiment outputs are unchanged.  Opt in with ``--events`` on the CLI,
or run under a :class:`~repro.obs.recording.Recording` holding an
enabled log.

Journals export as schema-tagged JSONL (``spotweb-events/1``): a header
line carrying the schema tag, then one event per line with fields
``seq`` / ``t`` / ``interval`` / ``kind`` / ``id`` / ``cause`` /
``attrs``.  A flight bundle (:mod:`repro.obs.flightrec`) is a window of
a journal in the same format; its header adds ``reason``, ``t``,
``trigger``, ``records`` and ``metrics``.  :func:`validate_events`
reports the **file line number and offending field** of the first
malformed record.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

from repro.devtools.contracts import field_units, units

__all__ = [
    "EVENTS_SCHEMA",
    "TERMINAL_OUTCOMES",
    "EventValidationError",
    "EventLog",
    "get_events",
    "write_events",
    "read_events",
    "load_events",
    "validate_events",
]

EVENTS_SCHEMA = "spotweb-events/1"

#: Outcomes a ``warning.resolved`` event may carry.
TERMINAL_OUTCOMES = ("migrated", "completed", "failed")

# Required keys of one exported event record, with their permitted types.
_EVENT_FIELDS: dict[str, tuple[type, ...]] = {
    "seq": (int,),
    "t": (int, float),
    "interval": (int, type(None)),
    "kind": (str,),
    "id": (str, type(None)),
    "cause": (str, type(None)),
    "attrs": (dict,),
}

_UNSET = object()


class EventValidationError(ValueError):
    """A malformed journal record, locating the line and field at fault.

    ``line`` is the 1-based JSONL line number (``None`` when validating
    in-memory records with no file context); ``field`` names the
    offending record field (``None`` for whole-record problems).
    """

    def __init__(
        self, message: str, *, line: int | None = None, field: str | None = None
    ) -> None:
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line
        self.field = field


@field_units(clock="s")
class EventLog:
    """Deterministic, sim-time-keyed domain-event collector.

    One log is in force at a time (see :func:`get_events`); instrumented
    code does::

        ev = get_events()
        wid = ev.open_warning(backend_id, t=now, capacity_rps=cap)
        ...
        ev.emit("server.drain", t=now, cause=wid, backend=backend_id)
        ...
        ev.resolve_warning(wid, t=now, lost=lost)

    When ``enabled`` is ``False`` (the default for the global log) every
    method returns immediately, so the disabled cost of an instrumented
    site is a single method call.

    The log also carries a **sim clock** (``clock``/``interval``) that
    time-owning drivers (the DES loop, the interval simulator) keep
    current, so components with no view of simulation time — the WRR
    scheduler, the revocation sampler — can still emit correctly keyed
    events.
    """

    def __init__(self, *, enabled: bool = False) -> None:
        self.enabled = bool(enabled)
        self.clock = 0.0
        self.interval: int | None = None
        self._records: list[dict] = []
        self._seq = 0
        self._next_warning = 0
        # warning id -> {"backend": ..., "migrated": accumulated count}
        self._open_warnings: dict[str, dict] = {}
        self._backend_warning: dict[object, str] = {}
        self._last_warning: str | None = None
        self._cause_stack: list[str] = []

    # -------------------------------------------------------------- recording
    @units(None, t="s")
    def emit(
        self,
        kind: str,
        *,
        t: float | None = None,
        interval: object = _UNSET,
        event_id: str | None = None,
        cause: str | None = None,
        **attrs,
    ) -> None:
        """Append one event; no-op while disabled.

        ``t`` defaults to the log's sim clock, ``interval`` to the log's
        current interval; ``cause`` defaults to the innermost active
        :meth:`causal` context (``None`` outside one).  ``attrs`` values
        are coerced to JSON-native scalars (numpy scalars flattened).
        """
        if not self.enabled:
            return
        if t is None:
            t = self.clock
        if interval is _UNSET:
            interval = self.interval
        if cause is None and self._cause_stack:
            cause = self._cause_stack[-1]
        self._records.append(
            {
                "seq": self._seq,
                "t": float(t),
                "interval": None if interval is None else int(interval),
                "kind": str(kind),
                "id": event_id,
                "cause": cause,
                "attrs": {key: _plain(value) for key, value in attrs.items()},
            }
        )
        self._seq += 1
        if cause is not None and kind == "session.migrate":
            info = self._open_warnings.get(cause)
            if info is not None:
                info["migrated"] += int(attrs.get("migrated", 0))

    def unique_id(self, prefix: str) -> str | None:
        """A journal-unique event id (``None`` while disabled).

        Built from the next sequence number, which strictly increases and
        is never reused — so ids minted here can never collide with each
        other, and :meth:`adopt` prefixing keeps them unique across
        parallel sweep cells.  Intended for emitters that need a
        referenceable id outside the warning lifecycle (e.g. spike
        markers that tier-switch events point at causally).
        """
        if not self.enabled:
            return None
        return f"{prefix}{self._seq}"

    # ---------------------------------------------------------- causal layer
    @units(None, t="s")
    def open_warning(
        self, backend: object, *, t: float | None = None, **attrs
    ) -> str | None:
        """Issue a revocation warning; returns its journal-unique id."""
        if not self.enabled:
            return None
        wid = f"w{self._next_warning}"
        self._next_warning += 1
        self._open_warnings[wid] = {"backend": backend, "migrated": 0}
        self._backend_warning[backend] = wid
        self._last_warning = wid
        self.emit(
            "warning.issued", t=t, event_id=wid, backend=_plain(backend), **attrs
        )
        return wid

    def warning_for(self, backend: object) -> str | None:
        """The open warning id covering ``backend`` (``None`` if none)."""
        return self._backend_warning.get(backend)

    def last_open_warning(self) -> str | None:
        """The most recently issued warning id still unresolved."""
        if self._last_warning in self._open_warnings:
            return self._last_warning
        return None

    def warning_migrations(self, warning_id: str | None) -> int:
        """Sessions migrated so far under an open warning."""
        info = self._open_warnings.get(warning_id)
        return 0 if info is None else int(info["migrated"])

    @units(None, t="s")
    def resolve_warning(
        self,
        warning_id: str | None,
        *,
        t: float | None = None,
        lost: int = 0,
        outcome: str | None = None,
        **attrs,
    ) -> None:
        """Close a warning with a terminal outcome.

        When ``outcome`` is not given it is derived: ``failed`` if the
        kill lost requests, else ``migrated`` if any sessions were
        migrated under this warning, else ``completed``.
        """
        if not self.enabled or warning_id is None:
            return
        info = self._open_warnings.pop(warning_id, None)
        if info is None:
            return
        if self._backend_warning.get(info["backend"]) == warning_id:
            del self._backend_warning[info["backend"]]
        if outcome is None:
            if lost > 0:
                outcome = "failed"
            elif info["migrated"] > 0:
                outcome = "migrated"
            else:
                outcome = "completed"
        self.emit(
            "warning.resolved",
            t=t,
            cause=warning_id,
            outcome=outcome,
            lost=int(lost),
            migrated=int(info["migrated"]),
            **attrs,
        )

    @contextmanager
    def causal(self, cause: str | None) -> Iterator[None]:
        """Scope within which emitted events default their ``cause``."""
        if not self.enabled or cause is None:
            yield
            return
        self._cause_stack.append(cause)
        try:
            yield
        finally:
            self._cause_stack.pop()

    def current_cause(self) -> str | None:
        """The innermost active :meth:`causal` context id."""
        return self._cause_stack[-1] if self._cause_stack else None

    # --------------------------------------------------------------- sim clock
    @units(None, "s")
    def set_interval(self, interval: int | None, t: float | None = None) -> None:
        """Advance the log's interval (and optionally its sim clock)."""
        if not self.enabled:
            return
        self.interval = None if interval is None else int(interval)
        if t is not None:
            self.clock = float(t)

    # ----------------------------------------------------------------- results
    def records(self) -> list[dict]:
        """The journal so far, in emission (= seq) order."""
        return list(self._records)

    def record_count(self) -> int:
        """Number of records in the journal (cheap cursor anchor)."""
        return len(self._records)

    def records_since(self, start: int) -> list[dict]:
        """Records appended at index ``start`` and later.

        Streaming consumers (the telemetry bus) keep a cursor of
        :meth:`record_count` and drain only the new tail each tick.
        """
        return list(self._records[start:])

    def open_warning_count(self) -> int:
        return len(self._open_warnings)

    def adopt(self, records: Iterable[dict], *, cell: int | None = None) -> None:
        """Merge a sub-run's journal (e.g. one parallel sweep cell).

        Events are re-sequenced onto this log; ids and causes are
        prefixed ``c<cell>.`` so warnings from different cells never
        collide.  Adoption order is the caller's responsibility — the
        sweep engine adopts cells in item order, which is what makes the
        serial and parallel journals byte-identical.
        """
        if not self.enabled:
            return
        prefix = None if cell is None else f"c{cell}."
        for rec in records:
            eid, cause = rec["id"], rec["cause"]
            attrs = dict(rec["attrs"])
            if prefix is not None:
                eid = None if eid is None else prefix + eid
                cause = None if cause is None else prefix + cause
                attrs["cell"] = cell
            self._records.append(
                {
                    "seq": self._seq,
                    "t": rec["t"],
                    "interval": rec["interval"],
                    "kind": rec["kind"],
                    "id": eid,
                    "cause": cause,
                    "attrs": attrs,
                }
            )
            self._seq += 1

    def write(self, path: str | Path) -> Path:
        """Export the journal as schema-tagged JSONL."""
        return write_events(self.records(), path)


def _plain(value: object) -> object:
    """Coerce numpy scalars and other oddities to JSON-native types."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    try:
        return value.item()  # numpy scalar
    except AttributeError:
        return str(value)


# ---------------------------------------------------------------------- global
_EVENTS = EventLog()


def get_events() -> EventLog:
    """The process-global event log (disabled unless opted in)."""
    return _EVENTS


# ---------------------------------------------------------------- journal files
def write_events(records: Iterable[dict], path: str | Path, /, **header) -> Path:
    """Write event records as JSONL behind a schema header line.

    ``header`` fields follow the schema tag on the header line; a flight
    bundle puts its ``reason``, ``t``, ``trigger``, ``records`` and
    ``metrics`` there.
    """
    path = Path(path)
    lines = [json.dumps({"schema": EVENTS_SCHEMA, "kind": "header", **header})]
    lines.extend(json.dumps(rec, sort_keys=True) for rec in records)
    path.write_text("\n".join(lines) + "\n")
    return path


def read_events(
    path: str | Path, *, require_resolution: bool = True
) -> tuple[dict, list[dict]]:
    """Load and validate a journal or a flight bundle.

    Returns ``(header, records)``.  A header carrying ``reason`` marks a
    window of a journal (a flight bundle): its declared ``records``
    count must match, and its records may name causes from before the
    window and leave warnings open.  Raises
    :class:`EventValidationError` naming the 1-based file line and the
    offending field of the first malformed record.
    """
    raw = Path(path).read_text().splitlines()
    numbered: list[tuple[int, dict]] = []
    for lineno, line in enumerate(raw, start=1):
        if not line.strip():
            continue
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EventValidationError(
                f"not valid JSON: {exc.msg}", line=lineno
            ) from exc
        if not isinstance(parsed, dict):
            raise EventValidationError("record is not an object", line=lineno)
        numbered.append((lineno, parsed))
    if not numbered:
        raise EventValidationError("empty journal file")
    header_line, header = numbered[0]
    if header.get("schema") != EVENTS_SCHEMA:
        raise EventValidationError(
            f"unknown journal schema: {header.get('schema')!r}",
            line=header_line,
            field="schema",
        )
    records = [rec for _lineno, rec in numbered[1:]]
    lines = [lineno for lineno, _rec in numbered[1:]]
    window = "reason" in header
    if window:
        if not isinstance(header["reason"], str):
            raise EventValidationError(
                "window header has no string 'reason'",
                line=header_line,
                field="reason",
            )
        if header.get("records") != len(records):
            raise EventValidationError(
                f"header declares {header.get('records')!r} records, "
                f"window has {len(records)}",
                line=header_line,
                field="records",
            )
    validate_events(
        records,
        lines=lines,
        require_resolution=require_resolution and not window,
        window=window,
    )
    return header, records


def load_events(
    path: str | Path, *, require_resolution: bool = True
) -> list[dict]:
    """The validated records of a journal or a flight bundle."""
    return read_events(path, require_resolution=require_resolution)[1]


def validate_events(
    records: list[dict],
    *,
    lines: list[int] | None = None,
    require_resolution: bool = True,
    window: bool = False,
) -> None:
    """Check event records against the ``spotweb-events/1`` schema.

    Raises :class:`EventValidationError` on the first violation: a
    missing or mistyped field, a non-monotonic ``seq``, a duplicate id, a
    ``cause`` referencing an id not seen earlier in the journal, a
    ``warning.resolved`` with a non-terminal outcome, or (with
    ``require_resolution``) a ``warning.issued`` never resolved.  A
    ``window`` (a flight bundle's records) skips the cause-reference
    check: its first records may name a warning issued before the
    window opened.

    ``lines`` maps each record to its 1-based JSONL line number so the
    error can point at the file, not just the record index.
    """

    def where(i: int) -> int | None:
        return lines[i] if lines is not None and i < len(lines) else None

    seen_ids: dict[str, int] = {}
    open_warnings: dict[str, int] = {}
    prev_seq: int | None = None
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise EventValidationError(
                f"record {i} is not an object", line=where(i)
            )
        for key, types in _EVENT_FIELDS.items():
            if key not in rec:
                raise EventValidationError(
                    f"record {i} missing field {key!r}",
                    line=where(i),
                    field=key,
                )
            if not isinstance(rec[key], types) or isinstance(rec[key], bool):
                raise EventValidationError(
                    f"record {i} field {key!r} has type "
                    f"{type(rec[key]).__name__}, expected "
                    + "/".join(t.__name__ for t in types),
                    line=where(i),
                    field=key,
                )
        if prev_seq is not None and rec["seq"] <= prev_seq:
            raise EventValidationError(
                f"record {i} seq {rec['seq']} is not strictly increasing "
                f"(previous {prev_seq})",
                line=where(i),
                field="seq",
            )
        prev_seq = rec["seq"]
        eid = rec["id"]
        if eid is not None:
            if eid in seen_ids:
                raise EventValidationError(
                    f"record {i} reuses id {eid!r} "
                    f"(first defined by record {seen_ids[eid]})",
                    line=where(i),
                    field="id",
                )
            seen_ids[eid] = i
        cause = rec["cause"]
        if cause is not None and not window and cause not in seen_ids:
            raise EventValidationError(
                f"record {i} cause {cause!r} references an id not seen "
                "earlier in the journal",
                line=where(i),
                field="cause",
            )
        kind = rec["kind"]
        if kind == "warning.issued" and eid is not None:
            open_warnings[eid] = i
        elif kind == "warning.resolved":
            outcome = rec["attrs"].get("outcome")
            if outcome not in TERMINAL_OUTCOMES:
                raise EventValidationError(
                    f"record {i} warning.resolved outcome {outcome!r} is not "
                    f"one of {TERMINAL_OUTCOMES}",
                    line=where(i),
                    field="attrs",
                )
            if cause is None:
                raise EventValidationError(
                    f"record {i} warning.resolved has no cause",
                    line=where(i),
                    field="cause",
                )
            open_warnings.pop(cause, None)
    if require_resolution and open_warnings:
        wid = min(open_warnings, key=open_warnings.get)
        i = open_warnings[wid]
        raise EventValidationError(
            f"warning {wid!r} (record {i}) never resolved to a terminal "
            "outcome",
            line=where(i),
            field="id",
        )
