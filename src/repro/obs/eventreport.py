"""Journal analysis: ``python -m repro events summarize|timeline|diff``.

Turns a ``spotweb-events/1`` JSONL journal, or a flight bundle (a
window of one), into terminal reports (all rendered through the
foundation renderer :mod:`repro.textfmt` — ``repro.obs`` must not depend
on the reporting layer):

- **summarize** — event-kind top-N table, the per-warning incident
  report (warning → outcome, sessions migrated, requests lost, capacity
  gap), and the SLO compliance series with alert count; a bundle's
  report opens with its reason, trigger and firing alerts and closes
  with the metrics its header carries;
- **timeline** — the ASCII incident timeline: every warning with its
  causally linked drain / migration / replacement-boot / admission /
  reprovision events indented beneath it, in sim-time order; journals
  from the hybrid engine additionally get a tier-span table showing
  when the run was on the fluid vs the request tier and which
  warning/spike forced each switch;
- **diff** — aligns two journals by interval (falling back to sim-time
  buckets for intra-interval events) and reports the divergent buckets;
  identical-seed runs must report zero divergence.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

from repro.obs.events import load_events, read_events
from repro.textfmt import format_chain, format_table, format_topn, sparkline

__all__ = [
    "incidents",
    "kind_counts",
    "slo_series",
    "tier_spans",
    "format_event_summary",
    "format_timeline",
    "diff_journals",
    "format_diff",
    "summarize_events_file",
    "timeline_file",
    "diff_files",
]

#: Sim-time width of one diff bucket for events outside any interval.
_DIFF_BUCKET_SECONDS = 60.0


def kind_counts(records: list[dict]) -> list[tuple[str, int]]:
    """Event kinds with counts, most frequent first (name-tiebroken)."""
    counts = Counter(rec["kind"] for rec in records)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def _children_by_cause(records: list[dict]) -> dict[str, list[dict]]:
    children: dict[str, list[dict]] = defaultdict(list)
    for rec in records:
        if rec["cause"] is not None:
            children[rec["cause"]].append(rec)
    return children


def incidents(records: list[dict]) -> list[dict]:
    """One entry per revocation warning, in issue order.

    Each entry carries the warning id/backend/time, the terminal outcome
    (``open`` if the journal ended first), sessions migrated, requests
    lost, the revoked capacity, and every causally linked event.
    """
    children = _children_by_cause(records)
    out: list[dict] = []
    for rec in records:
        if rec["kind"] != "warning.issued" or rec["id"] is None:
            continue
        wid = rec["id"]
        linked = children.get(wid, [])
        resolved = next(
            (e for e in linked if e["kind"] == "warning.resolved"), None
        )
        migrated = sum(
            int(e["attrs"].get("migrated", 0))
            for e in linked
            if e["kind"] == "session.migrate"
        )
        out.append(
            {
                "id": wid,
                "backend": rec["attrs"].get("backend"),
                "t_issued": rec["t"],
                "t_resolved": None if resolved is None else resolved["t"],
                "outcome": (
                    "open"
                    if resolved is None
                    else resolved["attrs"].get("outcome")
                ),
                "migrated": (
                    int(resolved["attrs"].get("migrated", migrated))
                    if resolved is not None
                    else migrated
                ),
                "lost": (
                    int(resolved["attrs"].get("lost", 0))
                    if resolved is not None
                    else 0
                ),
                "capacity_rps": rec["attrs"].get("capacity_rps", 0.0),
                "events": linked,
            }
        )
    return out


def slo_series(records: list[dict]) -> list[dict]:
    """The ``slo.interval`` events in interval order."""
    series = [r for r in records if r["kind"] == "slo.interval"]
    series.sort(key=lambda r: (r["interval"], r["seq"]))
    return series


def tier_spans(records: list[dict]) -> list[dict]:
    """Engine-tier spans from ``sim.tier_switch`` events, in time order.

    Each span carries the tier, its ``[t_start, t_end)`` extent (the last
    span ends at the journal's final event time), the trigger that forced
    the switch, the causal link (``warning.issued`` / ``sim.spike`` id or
    ``None``), and how many in-flight requests the handoff moved.
    Journals without tier switches (plain request-level runs) yield an
    empty list.
    """
    switches = [r for r in records if r["kind"] == "sim.tier_switch"]
    if not switches:
        return []
    switches.sort(key=lambda r: (r["t"], r["seq"]))
    t_last = max(rec["t"] for rec in records)
    spans: list[dict] = []
    for i, rec in enumerate(switches):
        t_end = switches[i + 1]["t"] if i + 1 < len(switches) else t_last
        spans.append(
            {
                "tier": rec["attrs"]["tier"],
                "t_start": rec["t"],
                "t_end": t_end,
                "trigger": rec["attrs"].get("trigger"),
                "cause": rec["cause"],
                "moved": int(rec["attrs"].get("moved", 0)),
            }
        )
    return spans


def format_event_summary(records: list[dict], *, top: int = 12) -> str:
    """Render the full text report for one journal."""
    if not records:
        return "journal contains no events"
    parts: list[str] = []
    span = records[-1]["t"] - records[0]["t"]
    kinds = kind_counts(records)
    parts.append(
        format_topn(
            ["kind", "count"],
            [[kind, count] for kind, count in kinds],
            top=top,
            title=(
                f"event kinds ({len(records)} events over "
                f"{span:.1f} s of sim time)"
            ),
        )
    )

    incs = incidents(records)
    if incs:
        rows = [
            [
                inc["id"],
                inc["backend"] if inc["backend"] is not None else "-",
                inc["t_issued"],
                inc["outcome"],
                inc["migrated"],
                inc["lost"],
                inc["capacity_rps"],
                len(inc["events"]),
            ]
            for inc in incs
        ]
        parts.append(
            format_table(
                [
                    "warning",
                    "backend",
                    "t_issued",
                    "outcome",
                    "migrated",
                    "lost",
                    "capacity_rps",
                    "events",
                ],
                rows,
                title=f"incident report ({len(incs)} revocation warnings)",
            )
        )
        outcomes = Counter(inc["outcome"] for inc in incs)
        parts.append(
            "outcomes: "
            + ", ".join(f"{k}={outcomes[k]}" for k in sorted(outcomes))
        )

    series = slo_series(records)
    if series:
        compliance = [s["attrs"]["compliance"] for s in series]
        alerts = [r for r in records if r["kind"] == "slo.alert"]
        firing = sum(
            1 for a in alerts if a["attrs"].get("state") == "firing"
        )
        worst = min(compliance)
        parts.append(
            f"SLO compliance ({len(series)} intervals, worst "
            f"{100.0 * worst:.2f}%, {firing} alert(s) fired):\n  "
            + sparkline(compliance, width=72)
        )
    return "\n\n".join(parts)


def _event_label(rec: dict) -> str:
    attrs = rec["attrs"]
    extras = []
    for key in ("backend", "action", "state", "outcome", "sessions",
                "migrated", "lost", "capacity_rps"):
        if key in attrs:
            extras.append(f"{key}={attrs[key]}")
    label = rec["kind"]
    if extras:
        label += " (" + ", ".join(extras) + ")"
    return label


#: Per warning, runs of more than this many same-kind linked events are
#: collapsed in the timeline (state chatter like ``admission.flip`` can
#: attribute thousands of events to one long-lived warning).
_TIMELINE_RUN_CAP = 3


def _capped_children(events: list[dict]) -> list[tuple[dict | None, str]]:
    """Collapse long same-kind runs to head events plus an elision row."""
    out: list[tuple[dict | None, str]] = []
    i = 0
    while i < len(events):
        kind = events[i]["kind"]
        j = i
        while j < len(events) and events[j]["kind"] == kind:
            j += 1
        run = events[i:j]
        if len(run) > _TIMELINE_RUN_CAP:
            for e in run[:_TIMELINE_RUN_CAP - 1]:
                out.append((e, _event_label(e)))
            hidden = len(run) - (_TIMELINE_RUN_CAP - 1)
            out.append((None, f"... ({hidden} more {kind})"))
        else:
            for e in run:
                out.append((e, _event_label(e)))
        i = j
    return out


def _format_tier_spans(spans: list[dict]) -> str:
    rows = [
        [
            span["tier"],
            span["t_start"],
            span["t_end"],
            span["trigger"] if span["trigger"] is not None else "-",
            span["cause"] if span["cause"] is not None else "-",
            span["moved"],
        ]
        for span in spans
    ]
    return format_table(
        ["tier", "t_start", "t_end", "trigger", "cause", "moved"],
        rows,
        title=f"engine tier spans ({len(spans)} spans)",
    )


def format_timeline(records: list[dict]) -> str:
    """ASCII incident timeline: warnings with linked events indented.

    Hybrid-engine journals get the tier-span table prepended; journals
    without ``sim.tier_switch`` events render exactly as before.
    """
    if not records:
        return "journal contains no events"
    spans = tier_spans(records)
    incs = incidents(records)
    if not incs:
        if spans:
            return _format_tier_spans(spans)
        return "journal contains no revocation warnings"
    rows: list[list] = []
    depths: list[int] = []
    for inc in incs:
        rows.append(
            [f"{inc['id']} warning.issued", inc["t_issued"], "-"]
        )
        depths.append(0)
        for e, label in _capped_children(inc["events"]):
            if e is None:
                rows.append([label, "", ""])
            else:
                rows.append([label, e["t"], e["cause"]])
            depths.append(1)
    timeline = format_chain(
        ["event", "t", "cause"],
        rows,
        depths,
        title=f"incident timeline ({len(incs)} warnings)",
    )
    if spans:
        return _format_tier_spans(spans) + "\n\n" + timeline
    return timeline


# ----------------------------------------------------------------------- diff
def _bucket_of(rec: dict) -> str:
    if rec["interval"] is not None:
        return f"interval {rec['interval']}"
    return f"t[{int(rec['t'] // _DIFF_BUCKET_SECONDS) * int(_DIFF_BUCKET_SECONDS)}s)"


def _bucket_sort_key(bucket: str) -> tuple:
    kind, _, value = bucket.partition(" ")
    if kind == "interval":
        return (0, int(value), 0.0)
    return (1, 0, float(bucket[2:].rstrip("s)")))


def _fingerprint(rec: dict) -> str:
    return json.dumps(
        {
            "t": rec["t"],
            "interval": rec["interval"],
            "kind": rec["kind"],
            "id": rec["id"],
            "cause": rec["cause"],
            "attrs": rec["attrs"],
        },
        sort_keys=True,
    )


def diff_journals(a: list[dict], b: list[dict]) -> dict:
    """Align two journals and report divergences by interval/time bucket.

    Returns ``{"identical": bool, "buckets": [...], "first": ... }`` where
    each bucket entry carries the bucket label, per-side event counts,
    and the events present on only one side (as fingerprints).  ``first``
    is the earliest divergent bucket label (``None`` when identical).
    ``seq`` is excluded from the comparison — alignment is by content,
    so journals that only differ by re-sequencing compare clean.
    """
    sides: list[dict[str, Counter]] = []
    for records in (a, b):
        buckets: dict[str, Counter] = defaultdict(Counter)
        for rec in records:
            buckets[_bucket_of(rec)][_fingerprint(rec)] += 1
        sides.append(buckets)
    only_a, only_b = sides
    labels = sorted(
        set(only_a) | set(only_b), key=_bucket_sort_key
    )
    divergent: list[dict] = []
    for label in labels:
        ca, cb = only_a.get(label, Counter()), only_b.get(label, Counter())
        if ca == cb:
            continue
        missing_b = sorted((ca - cb).elements())
        missing_a = sorted((cb - ca).elements())
        divergent.append(
            {
                "bucket": label,
                "count_a": sum(ca.values()),
                "count_b": sum(cb.values()),
                "only_a": missing_b,
                "only_b": missing_a,
            }
        )
    return {
        "identical": not divergent,
        "buckets": divergent,
        "first": divergent[0]["bucket"] if divergent else None,
    }


def format_diff(result: dict, *, name_a: str = "A", name_b: str = "B") -> str:
    """Render a :func:`diff_journals` result."""
    if result["identical"]:
        return f"journals are equivalent: zero divergence ({name_a} == {name_b})"
    rows = [
        [
            d["bucket"],
            d["count_a"],
            d["count_b"],
            len(d["only_a"]),
            len(d["only_b"]),
        ]
        for d in result["buckets"]
    ]
    text = format_table(
        ["bucket", f"events_{name_a}", f"events_{name_b}",
         f"only_{name_a}", f"only_{name_b}"],
        rows,
        title=(
            f"{len(result['buckets'])} divergent bucket(s), first at "
            f"{result['first']}"
        ),
    )
    first = result["buckets"][0]
    sample = (first["only_a"] or first["only_b"])[:3]
    if sample:
        text += "\nfirst divergence sample:\n" + "\n".join(
            f"  {line}" for line in sample
        )
    return text


# ------------------------------------------------------------------ file entry
def summarize_events_file(path: str | Path, *, top: int = 12) -> str:
    """Load, validate, and summarize one journal or bundle file."""
    header, records = read_events(path, require_resolution=False)
    summary = format_event_summary(records, top=top)
    if "reason" not in header:
        return summary
    lines = [
        f"flight bundle {Path(path).name}: reason={header['reason']} "
        f"t={header.get('t')} records={len(records)}"
    ]
    if header.get("trigger"):
        lines.append("trigger: " + json.dumps(header["trigger"], sort_keys=True))
    for rec in records:
        if rec["kind"] == "slo.alert" and rec["attrs"].get("state") == "firing":
            attrs = rec["attrs"]
            lines.append(
                f"slo.alert t={rec['t']} state=firing "
                f"burn_short={attrs.get('burn_short')} "
                f"burn_long={attrs.get('burn_long')}"
            )
    lines += ["", summary]
    metrics = header.get("metrics") or {}
    if metrics:
        rows = [
            (
                name,
                json.dumps(value, sort_keys=True)
                if isinstance(value, dict)
                else value,
            )
            for name, value in sorted(metrics.items())
        ]
        lines += [
            "",
            format_table(("metric", "last value"), rows, title="last metrics"),
        ]
    return "\n".join(lines)


def timeline_file(path: str | Path) -> str:
    """Load, validate, and render the incident timeline of one file."""
    return format_timeline(load_events(path, require_resolution=False))


def diff_files(
    path_a: str | Path, path_b: str | Path
) -> tuple[dict, str]:
    """Diff two journal files; returns (result dict, rendered text)."""
    a = load_events(path_a, require_resolution=False)
    b = load_events(path_b, require_resolution=False)
    result = diff_journals(a, b)
    return result, format_diff(
        result, name_a=Path(path_a).name, name_b=Path(path_b).name
    )
