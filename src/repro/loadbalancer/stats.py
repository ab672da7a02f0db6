"""halog-style load-balancer statistics.

The paper exposes HAProxy's ``halog`` reporting through a REST interface so
the workload predictor can poll "the response time distribution, the request
arrival rate, the system throughput, the queue lengths of the servers, and
the dropped request rate".  :class:`BalancerStats` is that reporter: it
ingests per-request records and serves windowed summaries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = ["RequestRecord", "BalancerStats"]


@dataclass(frozen=True)
class RequestRecord:
    """One completed (or failed) request as halog would log it."""

    timestamp: float
    backend_id: int | None
    latency: float | None  # None = not served (dropped/failed)


class BalancerStats:
    """Windowed request statistics with per-backend breakdowns.

    Summaries cover the trailing ``window_seconds`` relative to the newest
    record (the poll moment).  Records arrive in time order (a DES clock
    never goes back), so each one recorded evicts those that fell out of
    the window: a poll reads only the window, and ``len`` counts it.
    """

    def __init__(self, window_seconds: float = 300.0, max_records: int = 500_000):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self.window_seconds = float(window_seconds)
        self._records: deque[RequestRecord] = deque(maxlen=max_records)

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------ feed
    def record_served(self, timestamp: float, backend_id: int, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self._append(RequestRecord(timestamp, backend_id, latency))

    def record_unserved(self, timestamp: float) -> None:
        self._append(RequestRecord(timestamp, None, None))

    def _append(self, record: RequestRecord) -> None:
        records = self._records
        if records and record.timestamp < records[-1].timestamp:
            raise ValueError(
                f"timestamp {record.timestamp} is earlier than the newest "
                f"record's {records[-1].timestamp}"
            )
        records.append(record)
        horizon = record.timestamp - self.window_seconds
        while records[0].timestamp < horizon:
            records.popleft()

    # ----------------------------------------------------------------- polls
    def arrival_rate(self) -> float:
        """Requests/second over the trailing window."""
        recs = self._records
        if len(recs) < 2:
            return 0.0
        span = max(recs[-1].timestamp - recs[0].timestamp, 1e-9)
        return len(recs) / span

    def throughput(self) -> float:
        """Served requests/second over the trailing window."""
        recs = [r for r in self._records if r.latency is not None]
        if len(recs) < 2:
            return 0.0
        span = max(recs[-1].timestamp - recs[0].timestamp, 1e-9)
        return len(recs) / span

    def drop_rate(self) -> float:
        recs = self._records
        if not recs:
            return 0.0
        unserved = sum(1 for r in recs if r.latency is None)
        return unserved / len(recs)

    def latency_percentiles(
        self, percentiles: tuple[float, ...] = (50.0, 90.0, 99.0)
    ) -> dict[float, float]:
        lats = [r.latency for r in self._records if r.latency is not None]
        if not lats:
            return {p: float("nan") for p in percentiles}
        arr = np.asarray(lats)
        return {p: float(np.percentile(arr, p)) for p in percentiles}

    def per_backend_load(self) -> dict[int, int]:
        """Served request counts per backend over the trailing window."""
        out: dict[int, int] = {}
        for r in self._records:
            if r.backend_id is not None and r.latency is not None:
                out[r.backend_id] = out.get(r.backend_id, 0) + 1
        return out

    def snapshot(self) -> dict[str, float]:
        """The poll payload the workload predictor consumes."""
        pct = self.latency_percentiles()
        return {
            "arrival_rate_rps": self.arrival_rate(),
            "throughput_rps": self.throughput(),
            "drop_rate": self.drop_rate(),
            "p50_s": pct[50.0],
            "p90_s": pct[90.0],
            "p99_s": pct[99.0],
        }
