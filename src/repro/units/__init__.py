"""Named conversion constants for SpotWeb's physical quantities.

Bare ``* 3600.0`` / ``* 1000.0`` factors are invisible to the units
checker (``spotunits`` rule SW304): a reader cannot tell seconds→hours
from a magic scaling fudge, and the analyzer cannot either.  These
constants carry their conversion *unit* in :data:`UNIT_OF` using the
shared grammar from :mod:`repro.devtools.specs`, so the static analyzer
propagates units straight through a conversion::

    interval_h = interval_s / SECONDS_PER_HOUR   # s / (s/hr) -> hr

Every constant's value is exactly ``1 / scale(unit)`` — e.g.
``SECONDS_PER_HOUR`` has unit ``s/hr`` (scale 1/3600) and value 3600 —
which ``tests/test_core_units.py`` asserts through the grammar itself.

This package sits in the *foundation* layer (it imports nothing) so
every layer may use the constants, and it is the one spelling that
code and the SW304 hints use.
"""

from __future__ import annotations

__all__ = [
    "SECONDS_PER_MINUTE",
    "MINUTES_PER_HOUR",
    "SECONDS_PER_HOUR",
    "HOURS_PER_DAY",
    "SECONDS_PER_DAY",
    "DAYS_PER_WEEK",
    "HOURS_PER_WEEK",
    "SECONDS_PER_WEEK",
    "MS_PER_SECOND",
    "REQUESTS_PER_KREQ",
    "UNIT_OF",
]

SECONDS_PER_MINUTE = 60.0
MINUTES_PER_HOUR = 60.0
SECONDS_PER_HOUR = 3600.0
HOURS_PER_DAY = 24.0
SECONDS_PER_DAY = 86400.0
DAYS_PER_WEEK = 7.0
HOURS_PER_WEEK = 168.0
SECONDS_PER_WEEK = 604800.0
MS_PER_SECOND = 1000.0
REQUESTS_PER_KREQ = 1000.0

#: constant name -> its unit in the shared spec grammar.  ``X_PER_Y`` has
#: unit ``x/y``: multiplying a ``y`` quantity by it yields an ``x``
#: quantity, and the scales cancel exactly (value == 1/scale).
UNIT_OF: dict[str, str] = {
    "SECONDS_PER_MINUTE": "s/min",
    "MINUTES_PER_HOUR": "min/hr",
    "SECONDS_PER_HOUR": "s/hr",
    "HOURS_PER_DAY": "hr/day",
    "SECONDS_PER_DAY": "s/day",
    "DAYS_PER_WEEK": "day/week",
    "HOURS_PER_WEEK": "hr/week",
    "SECONDS_PER_WEEK": "s/week",
    "MS_PER_SECOND": "ms/s",
    "REQUESTS_PER_KREQ": "req/kreq",
}
