"""Loaders for real workload trace formats.

The paper's experiments use the public English-Wikipedia request trace and a
proprietary VoD trace.  For users who have such data, this module parses the
two common shapes into :class:`~repro.workloads.trace.WorkloadTrace`:

- :func:`load_csv_trace` — ``timestamp,value`` or single-column CSV (the
  usual export of monitoring systems).
- :func:`load_wikipedia_pagecounts` — the Wikimedia ``pagecounts``/
  ``projectcounts`` format: whitespace-separated
  ``project pagename count bytes`` lines, one file per hour, aggregated to
  an hourly request rate.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.units import SECONDS_PER_HOUR
from repro.workloads.trace import WorkloadTrace

__all__ = ["load_csv_trace", "load_wikipedia_pagecounts"]


def load_csv_trace(
    path: str | Path,
    *,
    value_column: str | int = -1,
    interval_seconds: float = 3600.0,
    name: str | None = None,
) -> WorkloadTrace:
    """Load a request-rate trace from a CSV file.

    ``value_column`` selects the rate column by header name or index
    (default: the last column).  With an index, a header row is assumed
    when the first row's value cell does not parse as a number.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path} contains no data")

    if isinstance(value_column, str):
        header = rows[0]
        if value_column not in header:
            raise ValueError(f"column {value_column!r} not in header {header}")
        idx = header.index(value_column)
        data_rows = rows[1:]
    else:
        idx = value_column
        try:
            float(rows[0][idx])
            data_rows = rows
        except (ValueError, IndexError):
            data_rows = rows[1:]

    values = []
    for row in data_rows:
        try:
            values.append(float(row[idx]))
        except (ValueError, IndexError) as exc:
            raise ValueError(f"bad row in {path}: {row}") from exc
    return WorkloadTrace(
        np.asarray(values), interval_seconds, name=name or path.stem
    )


def load_wikipedia_pagecounts(
    paths: list[str | Path],
    *,
    project_prefix: str = "en",
    name: str = "wikipedia",
) -> WorkloadTrace:
    """Aggregate Wikimedia pagecounts files (one per hour) to a trace.

    Each file holds ``project page count bytes`` lines; the per-hour request
    *rate* is the summed count of the matching project divided by 3600.
    Files must be passed in chronological order.
    """
    if not paths:
        raise ValueError("need at least one pagecounts file")
    rates = []
    for p in paths:
        total = 0
        with Path(p).open() as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                project, _page, count = parts[0], parts[1], parts[2]
                if project == project_prefix or project.startswith(
                    project_prefix + "."
                ):
                    try:
                        total += int(count)
                    except ValueError:
                        continue
        rates.append(total / SECONDS_PER_HOUR)
    return WorkloadTrace(np.asarray(rates), SECONDS_PER_HOUR, name=name)
