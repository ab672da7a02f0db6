"""Workload trace container."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.units import SECONDS_PER_DAY

__all__ = ["WorkloadTrace"]


@dataclass
class WorkloadTrace:
    """A request-arrival-rate time series.

    Attributes
    ----------
    rates:
        Mean request rate (requests/second) per interval.
    interval_seconds:
        Interval length (the paper uses hourly traces).
    name:
        Human-readable label used in reports.
    """

    rates: np.ndarray
    interval_seconds: float = 3600.0
    name: str = "workload"

    def __post_init__(self) -> None:
        self.rates = np.asarray(self.rates, dtype=np.float64).ravel()
        if self.rates.size == 0:
            raise ValueError("trace must contain at least one interval")
        if np.any(self.rates < 0):
            raise ValueError("request rates must be non-negative")
        if self.interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")

    def __len__(self) -> int:
        return self.rates.size

    def __getitem__(self, idx: int) -> float:
        return float(self.rates[idx])

    @property
    def intervals_per_day(self) -> int:
        return max(1, int(round(SECONDS_PER_DAY / self.interval_seconds)))

    def window(self, start: int, stop: int) -> "WorkloadTrace":
        """Sub-trace covering intervals ``[start, stop)``."""
        if not 0 <= start < stop <= len(self):
            raise ValueError("invalid window")
        return WorkloadTrace(
            self.rates[start:stop], self.interval_seconds, self.name
        )

    def scaled(self, peak_rps: float) -> "WorkloadTrace":
        """Rescale so the trace peak equals ``peak_rps``."""
        if peak_rps <= 0:
            raise ValueError("peak_rps must be positive")
        peak = float(self.rates.max())
        if peak == 0:
            raise ValueError("cannot scale an all-zero trace")
        return WorkloadTrace(
            self.rates * (peak_rps / peak), self.interval_seconds, self.name
        )

    def stats(self) -> dict[str, float]:
        """Summary statistics used by the Fig. 3 workload bench."""
        r = self.rates
        mean = float(r.mean())
        return {
            "mean_rps": mean,
            "peak_rps": float(r.max()),
            "min_rps": float(r.min()),
            "peak_to_mean": float(r.max() / mean) if mean > 0 else float("inf"),
            "cv": float(r.std() / mean) if mean > 0 else float("inf"),
        }

    def save(self, path: str | Path) -> None:
        np.savez_compressed(
            Path(path),
            rates=self.rates,
            interval_seconds=self.interval_seconds,
            name=np.array(self.name),
        )

    @staticmethod
    def load(path: str | Path) -> "WorkloadTrace":
        data = np.load(Path(path), allow_pickle=False)
        return WorkloadTrace(
            rates=data["rates"],
            interval_seconds=float(data["interval_seconds"]),
            name=str(data["name"]),
        )
