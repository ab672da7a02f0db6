"""Dependency-free text rendering: tables, histograms, ASCII charts.

No plotting dependency ships with this repo; the examples, benches and
trace summaries print figure-shaped output instead.  This module is a
**foundation layer** — it may be imported from anywhere in ``repro``
(including :mod:`repro.obs`, which must not depend on the reporting
stack) and itself imports nothing above numpy.

:mod:`repro.analysis` re-exports the table, histogram and chart helpers
as part of the reporting-layer API.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = [
    "format_table",
    "format_topn",
    "format_chain",
    "format_histogram",
    "sparkline",
    "timeseries_plot",
]

_TICKS = "▁▂▃▄▅▆▇█"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in cells)) if cells else len(str(h))
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_topn(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    top: int,
    title: str | None = None,
) -> str:
    """Render the first ``top`` rows of a ranked table.

    The shared top-N report helper of ``trace summarize`` and ``events
    summarize``; appends a one-line footnote when rows were truncated so
    the reader knows the table is not exhaustive.
    """
    if top < 1:
        raise ValueError("top must be >= 1")
    text = format_table(headers, rows[:top], title=title)
    if len(rows) > top:
        text += f"\n... ({len(rows) - top} more)"
    return text


def format_chain(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    depths: Sequence[int],
    *,
    title: str | None = None,
    indent: str = "  ",
) -> str:
    """Render a table whose first column is indented per-row by ``depths``.

    The shared chain/tree renderer behind the trace critical path and the
    events incident timeline: each row's first cell is prefixed with
    ``indent * depth`` before normal table alignment.
    """
    if len(rows) != len(depths):
        raise ValueError("rows and depths must have equal length")
    indented = [
        [indent * int(d) + _fmt(row[0]), *row[1:]]
        for row, d in zip(rows, depths)
    ]
    return format_table(headers, indented, title=title)


def format_histogram(
    edges: np.ndarray,
    counts: np.ndarray,
    *,
    width: int = 40,
    title: str | None = None,
) -> str:
    """Render a horizontal ASCII histogram (Fig. 4(c,d) style)."""
    edges = np.asarray(edges, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    if edges.size != counts.size + 1:
        raise ValueError("edges must have one more entry than counts")
    peak = counts.max() if counts.size else 0
    lines = [title] if title else []
    for i, c in enumerate(counts):
        bar = "#" * (int(round(width * c / peak)) if peak > 0 else 0)
        lines.append(f"{edges[i]:+7.2f} .. {edges[i+1]:+7.2f} | {bar} {int(c)}")
    return "\n".join(lines)


def sparkline(values: np.ndarray, *, width: int | None = None) -> str:
    """One-line unicode sparkline of a series (resampled to ``width``)."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return ""
    if width is not None and values.size > width:
        # Mean-bin down to the requested width.
        edges = np.floor(np.linspace(0, values.size, width + 1)).astype(np.int64)
        values = np.array(
            [values[a:b].mean() for a, b in zip(edges[:-1], edges[1:]) if b > a]
        )
    lo, hi = float(values.min()), float(values.max())
    if hi - lo < 1e-12:
        return _TICKS[0] * values.size
    idx = ((values - lo) / (hi - lo) * (len(_TICKS) - 1)).round().astype(np.int64)
    return "".join(_TICKS[i] for i in idx)


def timeseries_plot(
    values: np.ndarray,
    *,
    height: int = 10,
    width: int = 72,
    label: str = "",
) -> str:
    """A character-grid plot of one series (rows = value bins)."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return label
    if height < 2 or width < 2:
        raise ValueError("height and width must be >= 2")
    if values.size > width:
        edges = np.floor(np.linspace(0, values.size, width + 1)).astype(np.int64)
        values = np.array(
            [values[a:b].mean() for a, b in zip(edges[:-1], edges[1:]) if b > a]
        )
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    rows = []
    levels = ((values - lo) / span * (height - 1)).round().astype(np.int64)
    for row in range(height - 1, -1, -1):
        line = "".join("*" if lv >= row else " " for lv in levels)
        edge = hi if row == height - 1 else (lo if row == 0 else None)
        prefix = f"{edge:10.1f} |" if edge is not None else " " * 10 + " |"
        rows.append(prefix + line)
    header = [label] if label else []
    return "\n".join(header + rows)
