"""The named conversion constants agree with the shared units grammar.

``repro.units`` promises that every ``X_PER_Y`` constant's value is
exactly ``1 / scale(unit)`` for its :data:`~repro.units.UNIT_OF` entry —
multiplying a ``y`` quantity by the constant yields an ``x`` quantity
with the scales cancelling exactly.  These tests enforce that promise
through the grammar itself.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import repro.units as units
from repro.devtools.specs import parse_unit

CONSTANTS = [name for name in units.__all__ if name != "UNIT_OF"]


def test_every_constant_has_a_unit_and_vice_versa():
    assert set(units.UNIT_OF) == set(CONSTANTS)


@pytest.mark.parametrize("name", CONSTANTS)
def test_value_is_exactly_one_over_grammar_scale(name):
    value = getattr(units, name)
    spec = parse_unit(units.UNIT_OF[name])
    assert Fraction(value) * spec.scale() == 1
    assert float(value).is_integer()  # conversion counts are whole numbers


@pytest.mark.parametrize("name", CONSTANTS)
def test_units_are_pure_same_dimension_ratios(name):
    # An X_PER_Y conversion rescales within one dimension (s/hr) or
    # between request magnitudes (req/kreq): dimensionless net exponents.
    assert parse_unit(units.UNIT_OF[name]).dimensions() == {}


def test_derived_constants_compose():
    assert units.SECONDS_PER_HOUR == (
        units.SECONDS_PER_MINUTE * units.MINUTES_PER_HOUR
    )
    assert units.SECONDS_PER_DAY == units.SECONDS_PER_HOUR * units.HOURS_PER_DAY
    assert units.HOURS_PER_WEEK == units.HOURS_PER_DAY * units.DAYS_PER_WEEK
    assert units.SECONDS_PER_WEEK == (
        units.SECONDS_PER_DAY * units.DAYS_PER_WEEK
    )

