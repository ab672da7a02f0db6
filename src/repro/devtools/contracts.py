"""Runtime array/shape/unit contracts for SpotWeb's hot seams.

The optimizer pipeline moves ``(H, N)`` portfolio matrices, ``(N,)`` price
vectors and per-request prices between layers; a transposed matrix or a
$/hour value where $/hour-per-req/s is expected fails *silently* — the QP
still solves, the answer is just wrong.  This module provides cheap,
switchable call-time checks:

- :func:`shapes` — declare symbolic shapes per parameter
  (``@shapes("(H,N)", "(N,)")``); dimension symbols must bind consistently
  across all parameters of one call.  Alternatives are supported with
  ``|`` (``"()|(H,)"`` accepts a scalar or a vector).
- :func:`nonneg` — declare that named parameters (arrays, scalars, or the
  values of a mapping) are elementwise non-negative, the ``A >= 0``
  portfolio invariant.
- :func:`freeze_arrays` — make ndarray fields of a (frozen) dataclass
  genuinely immutable from ``__post_init__``.
- :func:`units` — declare units of measure per parameter in the shared
  spec grammar (``@units("req/s", "s/interval", ret="usd")``); tagged
  :class:`UnitScalar` arguments are checked for dimensional equivalence
  at call time, and the same declarations drive the static ``spotunits``
  analyzer as interprocedural call summaries.
- :func:`field_units` — declare units of a class's attributes (dataclass
  fields, ``__init__``-assigned attributes, or properties); checked where
  tagged values are constructed, and read statically by ``spotunits`` to
  seed attribute units.
- Unit-tagged scalars (:class:`UnitScalar` plus :func:`usd_per_hour`,
  :func:`usd_per_hour_per_rps`, :func:`rps`) and the canonical
  :func:`per_request_prices` conversion, so the $/hour → $/hour-per-req/s
  cleaning step happens in exactly one audited place.

Checks are active by default and controlled by the ``SPOTWEB_CONTRACTS``
environment variable (``0``/``false``/``off`` disables them — benchmarks
run with checks off).  When disabled the wrappers reduce to a single
boolean test per call.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections.abc import Mapping
from typing import Any, Callable, TypeVar

import numpy as np

from repro.devtools.specs import (
    DTYPE_CODES,
    ShapeSpec,
    UnitSpec,
    format_spec,
    format_unit,
    parse_spec,
    parse_unit,
)

__all__ = [
    "ContractError",
    "contracts_enabled",
    "set_contracts",
    "shapes",
    "nonneg",
    "freeze_arrays",
    "units",
    "field_units",
    "UnitScalar",
    "usd_per_hour",
    "usd_per_hour_per_rps",
    "rps",
    "require_unit",
    "per_request_prices",
]

_F = TypeVar("_F", bound=Callable[..., Any])

_ENV_VAR = "SPOTWEB_CONTRACTS"
_DISABLED_VALUES = {"0", "false", "off", "no"}

_enabled = os.environ.get(_ENV_VAR, "1").strip().lower() not in _DISABLED_VALUES


class ContractError(ValueError):
    """A runtime contract (shape, sign, or unit) was violated."""


def contracts_enabled() -> bool:
    """Whether contract checks run on this process right now."""
    return _enabled


def set_contracts(flag: bool) -> bool:
    """Enable/disable checks process-wide; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


# --------------------------------------------------------------------------
# Shape specs (grammar shared with the static checker in repro.devtools.shape)
# --------------------------------------------------------------------------

_SKIP = (None, "*", "...")

_parse_spec = parse_spec


def _try_bind(
    shape: tuple[int, ...],
    dims: tuple[object, ...],
    bindings: dict[str, int],
) -> dict[str, int] | None:
    """Match ``shape`` against one alternative; return updated bindings."""
    if len(shape) != len(dims):
        return None
    trial = dict(bindings)
    for actual, dim in zip(shape, dims):
        if dim == "*":
            continue
        if isinstance(dim, int):
            if actual != dim:
                return None
        else:
            bound = trial.get(dim)
            if bound is None:
                trial[dim] = actual
            elif bound != actual:
                return None
    return trial


def _check_shape(
    qualname: str,
    pname: str,
    value: Any,
    alternatives: tuple[ShapeSpec, ...],
    bindings: dict[str, int],
) -> dict[str, int]:
    shape = np.shape(value)
    dtype_failures: list[tuple[str, str]] = []
    for alt in alternatives:
        trial = _try_bind(shape, alt.dims, bindings)
        if trial is None:
            continue
        if alt.dtype is not None:
            actual_dtype = np.asarray(value).dtype
            if actual_dtype != np.dtype(DTYPE_CODES[alt.dtype]):
                dtype_failures.append((alt.dtype, str(actual_dtype)))
                continue
        return trial
    expected = format_spec(alternatives).replace("|", " | ")
    if dtype_failures:
        code, actual_dtype = dtype_failures[0]
        raise ContractError(
            f"{qualname}: parameter '{pname}' has dtype {actual_dtype}, "
            f"expected {DTYPE_CODES[code]} ({code}) per spec {expected}"
        )
    raise ContractError(
        f"{qualname}: parameter '{pname}' has shape {shape}, expected "
        f"{expected} with bindings {bindings or '{}'}"
    )


def shapes(*pos_specs: str | None, ret: str | None = None, **kw_specs: str) -> Callable[[_F], _F]:
    """Declare symbolic shape contracts for a function's parameters.

    Positional specs map onto the function's parameters in order
    (``self``/``cls`` is skipped automatically); keyword specs address
    parameters by name.  ``None`` or ``"*"`` skips a parameter, as do
    ``None`` argument values at call time.  ``ret=`` checks the return
    value against the same symbol bindings.
    """
    parsed_kw = {
        name: _parse_spec(spec) for name, spec in kw_specs.items() if spec not in _SKIP
    }
    parsed_ret = _parse_spec(ret) if ret not in _SKIP else None

    def decorate(func: _F) -> _F:
        signature = inspect.signature(func)
        names = list(signature.parameters)
        if names and names[0] in ("self", "cls"):
            names = names[1:]
        if len(pos_specs) > len(names):
            raise ValueError(
                f"{func.__qualname__}: {len(pos_specs)} shape specs for "
                f"{len(names)} parameters"
            )
        spec_map = dict(parsed_kw)
        for name, spec in zip(names, pos_specs):
            if spec not in _SKIP:
                spec_map[name] = _parse_spec(spec)
        unknown = set(spec_map) - set(signature.parameters)
        if unknown:
            raise ValueError(
                f"{func.__qualname__}: shape specs for unknown parameters "
                f"{sorted(unknown)}"
            )

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return func(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bindings: dict[str, int] = {}
            for pname, alternatives in spec_map.items():
                value = bound.arguments.get(pname, None)
                if value is None:
                    continue
                bindings = _check_shape(
                    func.__qualname__, pname, value, alternatives, bindings
                )
            result = func(*args, **kwargs)
            if parsed_ret is not None and result is not None:
                _check_shape(
                    func.__qualname__, "<return>", result, parsed_ret, bindings
                )
            return result

        return wrapper  # type: ignore[return-value]

    return decorate


def nonneg(*param_names: str, tol: float = 1e-9) -> Callable[[_F], _F]:
    """Declare that named parameters are elementwise non-negative.

    Accepts scalars, array-likes, and mappings (checked over their values).
    ``None`` values are skipped.  This is the paper's ``A >= 0`` portfolio
    invariant applied at the call boundary.
    """

    def decorate(func: _F) -> _F:
        signature = inspect.signature(func)
        unknown = set(param_names) - set(signature.parameters)
        if unknown:
            raise ValueError(
                f"{func.__qualname__}: nonneg specs for unknown parameters "
                f"{sorted(unknown)}"
            )

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return func(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            for pname in param_names:
                value = bound.arguments.get(pname, None)
                if value is None:
                    continue
                if isinstance(value, Mapping):
                    values = list(value.values())
                else:
                    values = value
                arr = np.asarray(values, dtype=np.float64)
                if arr.size and float(arr.min()) < -tol:
                    raise ContractError(
                        f"{func.__qualname__}: parameter '{pname}' must be "
                        f"non-negative, min value {float(arr.min())!r}"
                    )
            return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    return decorate


# --------------------------------------------------------------------------
# Units of measure (grammar shared with the static checker repro.devtools.units)
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _cached_unit(text: str) -> UnitSpec:
    return parse_unit(text)


def _check_unit(qualname: str, pname: str, value: Any, spec: UnitSpec) -> None:
    """Tagged values must be dimensionally equivalent; untagged pass."""
    if not isinstance(value, UnitScalar):
        return
    try:
        actual = _cached_unit(value.unit)
    except ValueError:
        # Legacy free-text tags fall back to exact-string semantics.
        return
    if not actual.equivalent(spec):
        raise ContractError(
            f"{qualname}: parameter '{pname}' has unit "
            f"{format_unit(actual)}, expected {format_unit(spec)}"
        )


def _any_tagged(args: tuple, kwargs: dict) -> bool:
    """Whether any argument is a :class:`UnitScalar` (the only kind checked)."""
    for value in args:
        if isinstance(value, UnitScalar):
            return True
    for value in kwargs.values():
        if isinstance(value, UnitScalar):
            return True
    return False


def units(
    *pos_specs: str | None, ret: str | None = None, **kw_specs: str
) -> Callable[[_F], _F]:
    """Declare units of measure for a function's parameters.

    Positional specs map onto the function's parameters in order
    (``self``/``cls`` is skipped automatically); keyword specs address
    parameters by name; ``None`` or ``"*"`` skips a parameter.  Specs use
    the shared grammar from :mod:`repro.devtools.specs` — ``"req/s"``,
    ``"usd/(server*hr)"``, ``"s/interval"`` — so a spec that the runtime
    accepts is exactly one the static ``spotunits`` analyzer understands,
    and vice versa.

    At call time only :class:`UnitScalar`-tagged arguments are checked
    (plain floats/arrays carry no unit evidence and pass); a tagged value
    whose unit is not dimensionally equivalent raises
    :class:`ContractError` naming the offending parameter.  ``ret=``
    checks a tagged return value.  The declarations are also extracted
    statically, where they seed and check *untagged* dataflow — the
    runtime and static halves enforce the same spec from the same parser.
    """
    parsed_kw = {
        name: _cached_unit(spec)
        for name, spec in kw_specs.items()
        if spec not in _SKIP
    }
    parsed_ret = _cached_unit(ret) if ret not in _SKIP else None

    def decorate(func: _F) -> _F:
        signature = inspect.signature(func)
        names = list(signature.parameters)
        if names and names[0] in ("self", "cls"):
            names = names[1:]
        if len(pos_specs) > len(names):
            raise ValueError(
                f"{func.__qualname__}: {len(pos_specs)} unit specs for "
                f"{len(names)} parameters"
            )
        spec_map = dict(parsed_kw)
        for name, spec in zip(names, pos_specs):
            if spec not in _SKIP:
                spec_map[name] = _cached_unit(spec)
        unknown = set(spec_map) - set(signature.parameters)
        if unknown:
            raise ValueError(
                f"{func.__qualname__}: unit specs for unknown parameters "
                f"{sorted(unknown)}"
            )

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not _enabled:
                return func(*args, **kwargs)
            # Untagged arguments always pass, so a call without one skips
            # the (comparatively costly) bind.
            if _any_tagged(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                for pname, spec in spec_map.items():
                    value = bound.arguments.get(pname, None)
                    if value is None:
                        continue
                    _check_unit(func.__qualname__, pname, value, spec)
            result = func(*args, **kwargs)
            if parsed_ret is not None and result is not None:
                _check_unit(func.__qualname__, "<return>", result, parsed_ret)
            return result

        return wrapper  # type: ignore[return-value]

    return decorate


def field_units(**specs: str) -> Callable[[type], type]:
    """Declare units for a class's attributes (``@field_units(rates="req/s")``).

    A declaration-first contract: specs are parsed (and therefore
    validated) at decoration time and stored on the class as
    ``__unit_fields__``, where the static ``spotunits`` analyzer reads
    them to give attribute loads (``self.x``, ``obj.x`` for objects of
    annotated type) known units.  When the class is a dataclass, declared
    names must name real fields or class attributes — a typo fails at
    import, not silently.
    """
    parsed = {name: _cached_unit(spec) for name, spec in specs.items()}

    def decorate(cls: type) -> type:
        import dataclasses

        known: set[str] | None = None
        if dataclasses.is_dataclass(cls):
            known = {f.name for f in dataclasses.fields(cls)}
            known.update(
                name for name in dir(cls) if not name.startswith("__")
            )
        if known is not None:
            unknown = set(parsed) - known
            if unknown:
                raise ValueError(
                    f"{cls.__qualname__}: unit specs for unknown fields "
                    f"{sorted(unknown)}"
                )
        inherited = dict(getattr(cls, "__unit_fields__", {}))
        inherited.update({name: format_unit(u) for name, u in parsed.items()})
        cls.__unit_fields__ = inherited
        return cls

    return decorate


# --------------------------------------------------------------------------
# Immutability helper
# --------------------------------------------------------------------------


def freeze_arrays(obj: Any, *field_names: str) -> None:
    """Coerce dataclass fields to read-only float ndarrays.

    Intended for ``__post_init__`` of frozen dataclasses (uses
    ``object.__setattr__`` so it works there).  Arrays are converted with
    ``np.asarray`` — an ndarray input is frozen *in place*, so construct
    snapshots/results from fresh or copied arrays.
    """
    for name in field_names:
        arr = np.asarray(getattr(obj, name), dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


# --------------------------------------------------------------------------
# Unit-tagged scalars
# --------------------------------------------------------------------------


class UnitScalar(float):
    """A float carrying a unit tag; arithmetic degrades to plain float.

    The tag exists to be *checked at seams* with :func:`require_unit`, not
    to implement dimensional analysis — this keeps the hot path as cheap
    as ordinary floats.
    """

    __slots__ = ("unit",)

    def __new__(cls, value: float, unit: str) -> "UnitScalar":
        obj = super().__new__(cls, value)
        obj.unit = unit
        return obj

    def __repr__(self) -> str:
        return f"{float(self)!r} [{self.unit}]"


def usd_per_hour(value: float) -> UnitScalar:
    """Tag a server price in usd/(server*hr) (the raw market feed unit)."""
    if value < 0:
        raise ContractError(f"price must be non-negative, got {value!r}")
    return UnitScalar(value, "usd/(server*hr)")


def usd_per_hour_per_rps(value: float) -> UnitScalar:
    """Tag a *cleaned* per-request price in usd/(rps*hr)."""
    if value < 0:
        raise ContractError(f"per-request price must be non-negative, got {value!r}")
    return UnitScalar(value, "usd/(rps*hr)")


def rps(value: float) -> UnitScalar:
    """Tag a request rate in req/s."""
    if value < 0:
        raise ContractError(f"request rate must be non-negative, got {value!r}")
    return UnitScalar(value, "req/s")


def require_unit(value: float, unit: str) -> float:
    """Check a tagged scalar's unit at a seam; returns the plain float.

    Untagged plain floats pass through unchecked (the tags are opt-in),
    but a *mismatched* tag is always an error, even with contracts
    disabled — unit bugs are never acceptable.  Units compare by parsed
    dimensional equivalence from the shared grammar, so ``"rps"`` and
    ``"req/s"`` agree; tags that do not parse fall back to exact string
    comparison.
    """
    if isinstance(value, UnitScalar) and value.unit != unit:
        try:
            equivalent = _cached_unit(value.unit).equivalent(
                _cached_unit(unit)
            )
        except ValueError:
            equivalent = False
        if not equivalent:
            raise ContractError(f"expected a value in {unit}, got {value!r}")
    return float(value)


@shapes("(N,)", "(N,)", ret="(N,) f8")
def per_request_prices(prices: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """The paper's data-cleaning step: $/hour → $/hour per req/s.

    ``per_request[i] = prices[i] / capacity_rps[i]`` — the only sanctioned
    place this conversion happens, so the load balancer and optimizer can
    never disagree on units.
    """
    prices = np.asarray(prices, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    if np.any(capacities <= 0):
        raise ContractError("capacities must be positive to convert prices")
    if np.any(prices < 0):
        raise ContractError("prices must be non-negative")
    return prices / capacities
