"""The shared shape/dtype and units spec grammars for SpotWeb's contracts.

One grammar, two consumers: :mod:`repro.devtools.contracts` parses the
specs at import (and checks shapes at **runtime** under the test suite),
and the static checkers (:mod:`repro.devtools.shape` / ``spotshape`` for
shapes, :mod:`repro.devtools.units` / ``spotunits`` for units of measure)
check the same specs **statically** as interprocedural call summaries.
Parsing lives here so the checkers cannot drift apart — a spec either
means the same thing to both, or it is a parse error for both.

Shape grammar::

    spec        := alternative ("|" alternative)*
    alternative := "(" dims ")" [ws dtype]
    dims        := [dim ("," dim)*]
    dim         := INT | SYMBOL | "*"
    dtype       := "f8" | "f4" | "i8" | "i4" | "b1" | "u8"

Examples: ``"(H,N)"`` (a matrix with symbolic dims), ``"(N,) f8"`` (a
float64 vector), ``"()|(H,)"`` (scalar or vector), ``"(T,N) i8"`` (an
int64 count matrix).  Dimension symbols bind consistently across all
parameters of one call; ``*`` matches any single dimension without
binding.  A dtype suffix constrains the array's dtype exactly — ``f8``
means ``float64``, never "anything float-ish" — because implicit
widening/narrowing is precisely the bug class the suffixes exist to
catch.

Units grammar::

    unit     := factor (("*" | "/") factor)*
    factor   := "1" | atom
    atom     := TOKEN ["^" exponent] | "(" unit ")" ["^" exponent]
    exponent := ["-"] INT | "(" ["-"] INT "/" INT ")"

Tokens name a base dimension and a scale relative to that dimension's
canonical unit (:data:`UNIT_TOKENS`): ``s``/``ms``/``min``/``hr`` are
all *sim_time*, at scales 1, 1/1000, 60, 3600.  ``rps`` is an alias for
``req/s``.  Examples: ``"usd/(server*hr)"`` (an hourly server price),
``"s/interval"`` (an interval width), ``"req/s"`` (an arrival rate),
``"s^2"`` (a latency variance), ``"1"`` (a proven-dimensionless ratio).
Division is left-associative, so ``usd/hr/rps`` means
``usd * hr^-1 * rps^-1``.  Two units are *equivalent* when their
dimension exponent vectors and their net scale agree — ``rps`` and
``req/s`` are equivalent, ``s`` and ``hr`` are deliberately not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "DTYPE_CODES",
    "ShapeSpec",
    "parse_alternative",
    "parse_spec",
    "format_spec",
    "UNIT_TOKENS",
    "UNIT_ALIASES",
    "UnitSpec",
    "parse_unit",
    "format_unit",
]

#: dtype suffix code -> canonical NumPy dtype name.  Codes follow NumPy's
#: ``dtype.str`` kind+itemsize convention; the set is deliberately small —
#: the reproduction's arrays are float64/float32/int64/int32/bool and a
#: contract naming anything else is almost certainly a typo.
DTYPE_CODES: dict[str, str] = {
    "f8": "float64",
    "f4": "float32",
    "i8": "int64",
    "i4": "int32",
    "b1": "bool",
    "u8": "uint64",
}


@dataclass(frozen=True)
class ShapeSpec:
    """One parsed alternative: a dim tuple plus an optional dtype code.

    ``dims`` entries are ``int`` literals, ``str`` symbols (``"H"``), or
    the wildcard ``"*"``.  ``dtype`` is a key of :data:`DTYPE_CODES` or
    ``None`` when the alternative does not constrain dtype.
    """

    dims: tuple[object, ...]
    dtype: str | None = None

    @property
    def rank(self) -> int:
        return len(self.dims)


def parse_alternative(text: str) -> ShapeSpec:
    """Parse one ``"(dims) [dtype]"`` alternative; raises ``ValueError``."""
    stripped = text.strip()
    if not stripped.startswith("("):
        raise ValueError(f"shape spec must be parenthesized, got {text!r}")
    close = stripped.rfind(")")
    if close < 0:
        raise ValueError(f"shape spec must be parenthesized, got {text!r}")
    inner = stripped[1:close].strip()
    suffix = stripped[close + 1 :].strip()
    dtype: str | None = None
    if suffix:
        if suffix not in DTYPE_CODES:
            raise ValueError(
                f"unknown dtype suffix {suffix!r} in shape spec {text!r} "
                f"(expected one of {', '.join(sorted(DTYPE_CODES))})"
            )
        dtype = suffix
    dims: list[object] = []
    if inner:
        for token in inner.split(","):
            token = token.strip()
            if not token:
                continue
            if token == "*":
                dims.append("*")
            elif token.lstrip("-").isdigit():
                dims.append(int(token))
            elif token.isidentifier():
                dims.append(token)
            else:
                raise ValueError(
                    f"bad dimension {token!r} in shape spec {text!r}"
                )
    return ShapeSpec(dims=tuple(dims), dtype=dtype)


def parse_spec(spec: str) -> tuple[ShapeSpec, ...]:
    """Parse a full spec string into its ``|``-separated alternatives."""
    alternatives = tuple(parse_alternative(alt) for alt in spec.split("|"))
    if not alternatives:
        raise ValueError(f"empty shape spec {spec!r}")
    return alternatives


def format_spec(alternatives: tuple[ShapeSpec, ...] | ShapeSpec) -> str:
    """Render parsed alternatives back to canonical spec text.

    ``parse_spec(format_spec(parse_spec(s)))`` is always the identity on
    the parsed form, which the round-trip tests rely on.
    """
    if isinstance(alternatives, ShapeSpec):
        alternatives = (alternatives,)
    parts = []
    for alt in alternatives:
        body = "(" + ",".join(str(d) for d in alt.dims) + ")"
        if alt.rank == 1 and body.endswith(")"):
            body = body[:-1] + ",)"
        if alt.dtype is not None:
            body += f" {alt.dtype}"
        parts.append(body)
    return "|".join(parts)


# --------------------------------------------------------------------------
# Units of measure
# --------------------------------------------------------------------------

#: unit token -> (base dimension, scale in that dimension's canonical unit).
#: Scales are exact :class:`~fractions.Fraction` values so equivalence is
#: decidable (no float fuzz): ``hr`` is exactly 3600 canonical sim-seconds.
#: Declaration order here is the canonical formatting order.
UNIT_TOKENS: dict[str, tuple[str, Fraction]] = {
    "s": ("sim_time", Fraction(1)),
    "ms": ("sim_time", Fraction(1, 1000)),
    "min": ("sim_time", Fraction(60)),
    "hr": ("sim_time", Fraction(3600)),
    "day": ("sim_time", Fraction(86400)),
    "week": ("sim_time", Fraction(604800)),
    "wall_s": ("wall_time", Fraction(1)),
    "wall_ms": ("wall_time", Fraction(1, 1000)),
    "interval": ("interval", Fraction(1)),
    "req": ("request", Fraction(1)),
    "kreq": ("request", Fraction(1000)),
    "server": ("server", Fraction(1)),
    "usd": ("dollar", Fraction(1)),
    "frac": ("fraction", Fraction(1)),
}

#: derived spellings that expand to a compound of base tokens before
#: canonicalization: ``"rps"`` *is* ``"req/s"``, not merely convertible.
UNIT_ALIASES: dict[str, str] = {
    "rps": "req/s",
}

_TOKEN_ORDER = {token: i for i, token in enumerate(UNIT_TOKENS)}

_UNIT_LEXER = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<int>\d+)"
    r"|(?P<sym>[*/^()\-]))"
)


@dataclass(frozen=True)
class UnitSpec:
    """One parsed unit: canonical ``(token, exponent)`` factors.

    ``factors`` is sorted by :data:`UNIT_TOKENS` declaration order with
    repeated tokens combined and zero exponents dropped, so two spellings
    of the same unit parse to equal ``UnitSpec`` values
    (``"usd/(server*hr)"`` == ``"usd/hr/server"``).  The empty tuple is
    the dimensionless unit ``"1"``.
    """

    factors: tuple[tuple[str, Fraction], ...]

    def dimensions(self) -> dict[str, Fraction]:
        """Net exponent per base dimension (zero entries dropped)."""
        dims: dict[str, Fraction] = {}
        for token, exp in self.factors:
            dim = UNIT_TOKENS[token][0]
            total = dims.get(dim, Fraction(0)) + exp
            if total:
                dims[dim] = total
            else:
                dims.pop(dim, None)
        return dims

    def scale(self) -> Fraction:
        """Net scale vs. canonical units (``hr`` -> 3600, ``ms/s`` -> 1/1000).

        Fractional exponents of non-unit scales (e.g. ``hr^(1/2)``) have no
        exact rational scale; they fall back to a float-derived Fraction,
        which is still deterministic for equivalence comparison.
        """
        total = Fraction(1)
        for token, exp in self.factors:
            base = UNIT_TOKENS[token][1]
            if exp.denominator == 1:
                total *= base ** exp.numerator
            else:
                total *= Fraction(float(base) ** float(exp)).limit_denominator(
                    10**12
                )
        return total

    def __str__(self) -> str:  # pragma: no cover - convenience
        return format_unit(self)


#: the dimensionless unit, ``"1"``.
DIMENSIONLESS = UnitSpec(factors=())


def _lex_unit(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _UNIT_LEXER.match(text, pos)
        if match is None:
            raise ValueError(f"bad character in unit spec {text!r} at {pos}")
        pos = match.end()
        if match.lastgroup == "name":
            tokens.append(("name", match.group("name")))
        elif match.lastgroup == "int":
            tokens.append(("int", match.group("int")))
        else:
            tokens.append(("sym", match.group("sym")))
    return tokens


class _UnitParser:
    """Recursive-descent parser for the units grammar above."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _lex_unit(text)
        self.pos = 0

    def _peek(self) -> tuple[str, str] | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _next(self) -> tuple[str, str]:
        tok = self._peek()
        if tok is None:
            raise ValueError(f"unexpected end of unit spec {self.text!r}")
        self.pos += 1
        return tok

    def _expect(self, value: str) -> None:
        tok = self._next()
        if tok != ("sym", value):
            raise ValueError(
                f"expected {value!r} in unit spec {self.text!r}, "
                f"got {tok[1]!r}"
            )

    def parse(self) -> dict[str, Fraction]:
        factors = self._unit()
        if self._peek() is not None:
            raise ValueError(
                f"trailing garbage in unit spec {self.text!r}: "
                f"{self.tokens[self.pos][1]!r}"
            )
        return factors

    def _unit(self) -> dict[str, Fraction]:
        factors = self._factor()
        while True:
            tok = self._peek()
            if tok == ("sym", "*"):
                self._next()
                _merge(factors, self._factor(), Fraction(1))
            elif tok == ("sym", "/"):
                self._next()
                _merge(factors, self._factor(), Fraction(-1))
            else:
                return factors

    def _factor(self) -> dict[str, Fraction]:
        tok = self._peek()
        if tok == ("int", "1"):
            self._next()
            return {}
        if tok == ("sym", "("):
            self._next()
            inner = self._unit()
            self._expect(")")
            exp = self._maybe_exponent()
            if exp != 1:
                inner = {tok_: e * exp for tok_, e in inner.items()}
            return inner
        if tok is not None and tok[0] == "name":
            self._next()
            name = tok[1]
            exp = self._maybe_exponent()
            if name in UNIT_ALIASES:
                inner = _UnitParser(UNIT_ALIASES[name]).parse()
                return {tok_: e * exp for tok_, e in inner.items()}
            if name not in UNIT_TOKENS:
                known = ", ".join([*UNIT_TOKENS, *UNIT_ALIASES])
                raise ValueError(
                    f"unknown unit token {name!r} in {self.text!r} "
                    f"(known: {known})"
                )
            return {name: exp}
        got = "end of input" if tok is None else repr(tok[1])
        raise ValueError(f"expected a unit token in {self.text!r}, got {got}")

    def _maybe_exponent(self) -> Fraction:
        if self._peek() != ("sym", "^"):
            return Fraction(1)
        self._next()
        parenthesized = self._peek() == ("sym", "(")
        if parenthesized:
            self._next()
        negative = self._peek() == ("sym", "-")
        if negative:
            self._next()
        kind, value = self._next()
        if kind != "int":
            raise ValueError(
                f"bad exponent in unit spec {self.text!r}: expected an "
                f"integer, got {value!r}"
            )
        numerator = int(value)
        denominator = 1
        if parenthesized and self._peek() == ("sym", "/"):
            self._next()
            kind, value = self._next()
            if kind != "int":
                raise ValueError(
                    f"bad exponent denominator in unit spec {self.text!r}"
                )
            denominator = int(value)
            if denominator == 0:
                raise ValueError(
                    f"zero exponent denominator in unit spec {self.text!r}"
                )
        if parenthesized:
            self._expect(")")
        exp = Fraction(-numerator if negative else numerator, denominator)
        if exp == 0:
            raise ValueError(
                f"zero exponent in unit spec {self.text!r} "
                "(drop the factor instead)"
            )
        return exp


def _merge(
    into: dict[str, Fraction], other: dict[str, Fraction], sign: Fraction
) -> None:
    for token, exp in other.items():
        total = into.get(token, Fraction(0)) + sign * exp
        if total:
            into[token] = total
        else:
            into.pop(token, None)


def parse_unit(text: str) -> UnitSpec:
    """Parse a unit spec string into canonical form; raises ``ValueError``."""
    if not text or not text.strip():
        raise ValueError("empty unit spec")
    factors = _UnitParser(text).parse()
    ordered = tuple(
        (token, factors[token])
        for token in sorted(factors, key=_TOKEN_ORDER.__getitem__)
    )
    return UnitSpec(factors=ordered)


def _format_exponent(exp: Fraction) -> str:
    exp = abs(exp)
    if exp == 1:
        return ""
    if exp.denominator == 1:
        return f"^{exp.numerator}"
    return f"^({exp.numerator}/{exp.denominator})"


def format_unit(spec: UnitSpec) -> str:
    """Render a parsed unit back to canonical text.

    ``parse_unit(format_unit(parse_unit(s))) == parse_unit(s)`` always
    holds, which the round-trip tests rely on.
    """
    positives = [f for f in spec.factors if f[1] > 0]
    negatives = [f for f in spec.factors if f[1] < 0]
    if positives:
        text = "*".join(
            f"{token}{_format_exponent(exp)}" for token, exp in positives
        )
    else:
        text = "1"
    for token, exp in negatives:
        text += f"/{token}{_format_exponent(exp)}"
    return text
