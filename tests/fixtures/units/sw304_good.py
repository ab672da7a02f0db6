"""SW304 negative fixture: named constants, or non-convertible dimensions."""

from repro.units import MS_PER_SECOND, SECONDS_PER_HOUR
from repro.devtools.contracts import units

__all__ = ["thousands", "to_ms", "to_seconds"]


@units("hr", ret="s")
def to_seconds(duration_hr):
    return duration_hr * SECONDS_PER_HOUR


@units("s", ret="ms")
def to_ms(latency_s):
    return latency_s * MS_PER_SECOND


@units("usd")
def thousands(cost_usd):
    return cost_usd / 1000  # dollars are not a convertible dimension
