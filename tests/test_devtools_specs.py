"""Tests for the shared spec grammars (``repro.devtools.specs``).

Each grammar has two consumers — the contract decorators and a static
checker (spotshape for shapes, spotunits for units of measure) — so
parse/format behavior is pinned down here once.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.devtools.specs import (
    DIMENSIONLESS,
    DTYPE_CODES,
    UNIT_ALIASES,
    UNIT_TOKENS,
    ShapeSpec,
    UnitSpec,
    format_spec,
    format_unit,
    parse_alternative,
    parse_spec,
    parse_unit,
)


# ------------------------------------------------------------------ parsing
def test_parse_symbols_literals_and_wildcards():
    spec = parse_alternative("(H, N, 3, *)")
    assert spec.dims == ("H", "N", 3, "*")
    assert spec.dtype is None
    assert spec.rank == 4


def test_parse_scalar_and_vector():
    assert parse_alternative("()").dims == ()
    assert parse_alternative("(N,)").dims == ("N",)


def test_parse_dtype_suffixes():
    for code, canonical in DTYPE_CODES.items():
        spec = parse_alternative(f"(N,) {code}")
        assert spec.dtype == code
        assert canonical  # every code maps to a canonical NumPy name
    assert DTYPE_CODES["f8"] == "float64"
    assert DTYPE_CODES["i8"] == "int64"


def test_parse_alternatives_split_on_pipe():
    alts = parse_spec("()|(H,)|(H,N) f4")
    assert [a.dims for a in alts] == [(), ("H",), ("H", "N")]
    assert [a.dtype for a in alts] == [None, None, "f4"]


@pytest.mark.parametrize(
    "bad",
    [
        "N,",  # not parenthesized
        "(N,) f16",  # unknown dtype suffix
        "(N,) float64",  # canonical names are not suffixes
        "(N-1,)",  # expressions are not dims
    ],
)
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        parse_alternative(bad)


# --------------------------------------------------------------- formatting
@pytest.mark.parametrize(
    "text",
    ["()", "(N,)", "(H,N)", "(2,*)", "(N,) f8", "()|(H,)", "(T,N) i8|(N,) f4"],
)
def test_format_roundtrips_canonical_text(text):
    assert format_spec(parse_spec(text)) == text


def test_format_accepts_a_single_alternative():
    assert format_spec(ShapeSpec(dims=("N",), dtype="f8")) == "(N,) f8"


def test_roundtrip_is_identity_on_parsed_form():
    for text in ["(H, N ) f8", "( ) | (N,)"]:
        parsed = parse_spec(text)
        assert parse_spec(format_spec(parsed)) == parsed


# ------------------------------------------------------------ units: parsing
def test_unit_spellings_canonicalize_to_one_form():
    assert parse_unit("usd/(server*hr)") == parse_unit("usd/hr/server")
    assert parse_unit("usd/(server*hr)") == parse_unit("usd*hr^-1*server^-1")
    assert parse_unit("rps") == parse_unit("req/s")
    assert parse_unit("1") == DIMENSIONLESS
    assert parse_unit("s/s") == DIMENSIONLESS
    assert parse_unit("1/s") == parse_unit("s^-1")


def test_unit_exponents_including_fractional():
    assert parse_unit("s^2") == UnitSpec(factors=(("s", Fraction(2)),))
    assert parse_unit("s^(1/2)") == UnitSpec(factors=(("s", Fraction(1, 2)),))
    assert parse_unit("(req/s)^2") == parse_unit("req^2/s^2")
    assert parse_unit("s^(-1)") == parse_unit("1/s")


def test_unit_dimensions_and_scales_are_exact():
    assert parse_unit("hr").dimensions() == {"sim_time": Fraction(1)}
    assert parse_unit("hr").scale() == Fraction(3600)
    assert parse_unit("ms").scale() == Fraction(1, 1000)
    # usd/(rps*hr) expands rps to req/s; the s and hr exponents cancel
    # dimensionally (both sim_time) but their scales do not.
    per_req = parse_unit("usd/(rps*hr)")
    assert per_req.dimensions() == {
        "dollar": Fraction(1),
        "request": Fraction(-1),
    }
    assert per_req.scale() == Fraction(1, 3600)
    for token, (dim, scale) in UNIT_TOKENS.items():
        spec = parse_unit(token)
        assert spec.dimensions() == {dim: Fraction(1)}
        assert spec.scale() == scale


def test_unit_equivalence_requires_dims_and_scale():
    # spotunits' mismatch ladder is the one judge of equivalence.
    from repro.devtools.units.domain import classify_mismatch

    def grade(a: str, b: str) -> str | None:
        return classify_mismatch(parse_unit(a), parse_unit(b))

    assert grade("rps", "req/s") is None
    assert grade("kreq/s", "req/ms") is None  # both 1000x
    assert grade("s", "hr") == "SW303"
    assert grade("s", "wall_s") == "SW302"
    for alias, expansion in UNIT_ALIASES.items():
        assert parse_unit(alias) == parse_unit(expansion)


@pytest.mark.parametrize(
    "bad",
    [
        "",  # empty
        "  ",  # blank
        "furlongs",  # unknown token
        "s^0",  # zero exponent
        "s^(1/0)",  # zero denominator
        "s//hr",  # dangling operator
        "s hr",  # missing operator
        "s^x",  # non-integer exponent
        "(s",  # unbalanced parens
        "$",  # bad character
    ],
)
def test_parse_unit_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        parse_unit(bad)


# --------------------------------------------------------- units: formatting
@pytest.mark.parametrize(
    "text",
    [
        "1",
        "s",
        "req/s",
        "usd/(server*hr)",
        "usd/hr/server",
        "s^2",
        "s^(1/2)",
        "1/s",
        "rps",
        "ms*req",
        "wall_s",
        "s/interval",
        "usd/(rps*hr)",
    ],
)
def test_format_unit_roundtrips(text):
    # The guarantee the summaries/cache layer relies on: formatting then
    # re-parsing is the identity on the parsed form.
    parsed = parse_unit(text)
    assert parse_unit(format_unit(parsed)) == parsed


def test_format_unit_orders_factors_canonically():
    # Positives in token-declaration order, then negatives as divisions.
    assert format_unit(parse_unit("req/hr/s*usd")) == "req*usd/s/hr"
    assert format_unit(parse_unit("1/s")) == "1/s"
    assert format_unit(DIMENSIONLESS) == "1"
