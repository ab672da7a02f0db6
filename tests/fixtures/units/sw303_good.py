"""SW303 negative fixture: the same sums with the conversions written out."""

from repro.units import MS_PER_SECOND, SECONDS_PER_HOUR
from repro.devtools.contracts import units

__all__ = ["horizon", "latency_sum", "rate_gap"]


@units("s", "hr", ret="s")
def horizon(base_s, extra_hr):
    return base_s + extra_hr * SECONDS_PER_HOUR


@units("ms", "s", ret="s")
def latency_sum(a_ms, b_s):
    return a_ms / MS_PER_SECOND + b_s


@units("req/interval", "s/interval", ret="req/s")
def rate_gap(per_interval, width):
    return per_interval / width
