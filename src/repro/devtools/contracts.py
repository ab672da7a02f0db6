"""Contracts for SpotWeb's hot seams: shape and sign checks, unit declarations.

The optimizer pipeline moves ``(H, N)`` portfolio matrices, ``(N,)`` price
vectors and per-request prices between layers; a transposed matrix or a
$/hour value where $/hour-per-req/s is expected fails *silently* — the QP
still solves, the answer is just wrong.  This module provides:

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
  spec grammar (``@units("req/s", "s/interval", ret="usd")``).
- :func:`field_units` — declare units of a class's attributes (dataclass
  fields, ``__init__``-assigned attributes, or properties).
- The canonical :func:`per_request_prices` conversion, so the $/hour →
  $/hour-per-req/s cleaning step happens in exactly one audited place.

``@shapes`` and ``@nonneg`` check each call while they are switched on:
they start off in every process, where a wrapper costs one boolean test
per call, and the test suite switches them on with :func:`set_contracts`.
Every check on input from outside the program is an explicit
``ValueError`` next to its contract, so no outside-facing check depends
on the switch.  ``@units`` and ``@field_units`` are declarations: they
validate their specs at import and return the function or class
unchanged, and the static ``spotunits`` analyzer reads them from the
source as interprocedural summaries.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
from collections.abc import Mapping
from typing import Any, Callable, TypeVar

import numpy as np

from repro.devtools.specs import (
    DTYPE_CODES,
    ShapeSpec,
    UnitSpec,
    format_spec,
    parse_spec,
    parse_unit,
)

__all__ = [
    "ContractError",
    "set_contracts",
    "shapes",
    "nonneg",
    "freeze_arrays",
    "units",
    "field_units",
    "per_request_prices",
]

_F = TypeVar("_F", bound=Callable[..., Any])

_enabled = False


class ContractError(ValueError):
    """A runtime contract (shape or sign) was violated."""


def set_contracts(flag: bool) -> bool:
    """Switch the ``@shapes``/``@nonneg`` checks process-wide; returns the
    previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


# --------------------------------------------------------------------------
# Shape specs (grammar shared with the static checker in repro.devtools.shape)
# --------------------------------------------------------------------------

_SKIP = (None, "*", "...")


def _param_specs(
    func: Callable[..., Any],
    kind: str,
    parse: Callable[[str], Any],
    pos_specs: tuple[str | None, ...],
    kw_specs: dict[str, str],
) -> dict[str, Any]:
    """Parse one decorator's per-parameter specs for ``func``.

    Positional specs map onto the parameters in order (``self``/``cls``
    skipped), keyword specs by name; a spec that does not parse, or names
    a parameter ``func`` lacks, raises ``ValueError`` at import.
    """
    params = list(inspect.signature(func).parameters)
    names = params[1:] if params and params[0] in ("self", "cls") else params
    if len(pos_specs) > len(names):
        raise ValueError(
            f"{func.__qualname__}: {len(pos_specs)} {kind} specs for "
            f"{len(names)} parameters"
        )
    specs = {name: spec for name, spec in kw_specs.items() if spec not in _SKIP}
    specs.update(
        (name, spec) for name, spec in zip(names, pos_specs) if spec not in _SKIP
    )
    unknown = set(specs) - set(params)
    if unknown:
        raise ValueError(
            f"{func.__qualname__}: {kind} specs for unknown parameters "
            f"{sorted(unknown)}"
        )
    return {name: parse(spec) for name, spec in specs.items()}


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
    parsed_ret = parse_spec(ret) if ret not in _SKIP else None

    def decorate(func: _F) -> _F:
        signature = inspect.signature(func)
        spec_map = _param_specs(func, "shape", parse_spec, pos_specs, kw_specs)

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


def units(
    *pos_specs: str | None, ret: str | None = None, **kw_specs: str
) -> Callable[[_F], _F]:
    """Declare units of measure for a function's parameters.

    Positional specs map onto the function's parameters in order
    (``self``/``cls`` is skipped automatically); keyword specs address
    parameters by name; ``None`` or ``"*"`` skips a parameter.  Specs use
    the shared grammar from :mod:`repro.devtools.specs` — ``"req/s"``,
    ``"usd/(server*hr)"``, ``"s/interval"``.

    A declaration, not a check: at import every spec must parse and name
    a real parameter (else ``ValueError``), and the function comes back
    unchanged, so its calls cost nothing.  The static ``spotunits``
    analyzer reads the same text from the source and checks every call
    site, field store and return against it.
    """
    if ret not in _SKIP:
        _cached_unit(ret)

    def decorate(func: _F) -> _F:
        _param_specs(func, "unit", _cached_unit, pos_specs, kw_specs)
        return func

    return decorate


def field_units(**specs: str) -> Callable[[type], type]:
    """Declare units for a class's attributes (``@field_units(rates="req/s")``).

    A declaration like :func:`units`: every spec must parse at import,
    and on a dataclass every name must be a field or class attribute, so
    a typo fails at import.  The class comes back unchanged; ``spotunits``
    reads the table from the source to give attribute loads (``self.x``,
    ``obj.x`` for objects of annotated type) known units.
    """
    for spec in specs.values():
        _cached_unit(spec)

    def decorate(cls: type) -> type:
        if dataclasses.is_dataclass(cls):
            known = {f.name for f in dataclasses.fields(cls)}
            known.update(name for name in dir(cls) if not name.startswith("__"))
            unknown = set(specs) - known
            if unknown:
                raise ValueError(
                    f"{cls.__qualname__}: unit specs for unknown fields "
                    f"{sorted(unknown)}"
                )
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
