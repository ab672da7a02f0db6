"""The abstract domain ``spotshape`` interprets NumPy code over.

An abstract array is a tuple of symbolic dimensions plus a dtype:

- a **dim** is an ``int`` literal (``3``), a symbol (``"N"``, bound
  consistently within one function), or ``"?"`` (statically unknown);
  the contract wildcard ``"*"`` behaves like ``"?"`` here;
- a **dtype** is a canonical NumPy dtype name (``"float64"``) or ``"?"``;
- ``integral`` marks float arrays proven integer-valued (the result of
  ``np.floor``/``ceil``/``rint``/``round``), which makes a subsequent
  ``astype(int64)`` a safe conversion instead of a truncation.

Scalars are rank-0 arrays, exactly as in the ``@shapes`` grammar
(:mod:`repro.devtools.specs`).  Everything the interpreter cannot model
is ``None`` ("no information"), never a guess — the checker only reports
when it *proves* a mismatch, so unknowns silently pass.

Dimension unification comes in two strengths:

- :func:`unify_dim` — exact equality, used for contract matching and
  matmul inner dims; a symbol meeting an ``int`` **binds** it in the
  function's binding map, and a second, different literal for the same
  symbol is the SW201 inconsistency.
- :func:`broadcast_dims` — NumPy broadcasting, used for elementwise
  operators; a literal ``1`` stretches instead of binding.

Dtype promotion (:func:`promote`) mirrors NumPy's rules for the dtypes
the reproduction uses, and additionally reports when a float64/float32
mix silently widens — the SW202 bug class.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "UNKNOWN_DIM",
    "UNKNOWN_DTYPE",
    "ArrayVal",
    "Bindings",
    "DimConflict",
    "scalar",
    "is_float",
    "is_int",
    "promote",
    "resolve_dim",
    "unify_dim",
    "broadcast_dims",
    "format_dims",
]

UNKNOWN_DIM = "?"
UNKNOWN_DTYPE = "?"

_FLOAT_ORDER = ("float16", "float32", "float64")
_INT_ORDER = (
    "int8", "uint8", "int16", "uint16", "int32", "uint32", "int64", "uint64"
)

#: symbol -> concrete dim it has been unified with (int, or another symbol)
Bindings = dict


@dataclass(frozen=True)
class DimConflict:
    """One failed unification, ready to become an SW201/SW200 message."""

    detail: str


@dataclass(frozen=True)
class ArrayVal:
    """One abstract array: symbolic dims, a dtype, an integrality flag."""

    dims: tuple
    dtype: str = UNKNOWN_DTYPE
    integral: bool = False

    @property
    def rank(self) -> int:
        return len(self.dims)


def scalar(dtype: str = UNKNOWN_DTYPE) -> ArrayVal:
    """A rank-0 abstract value (plain Python number or 0-d array)."""
    return ArrayVal(dims=(), dtype=dtype)


def is_float(dtype: str) -> bool:
    return dtype in _FLOAT_ORDER


def is_int(dtype: str) -> bool:
    return dtype in _INT_ORDER


def promote(a: str, b: str) -> tuple[str, bool]:
    """NumPy-style result dtype for a binary op; flags silent float mixes.

    Returns ``(result_dtype, widened)`` where ``widened`` is True exactly
    when both operands are floats of *different* widths — the operation
    silently promotes the narrow one, which is SW202's implicit-widening
    case.
    """
    if UNKNOWN_DTYPE in (a, b):
        return UNKNOWN_DTYPE, False
    if a == b:
        return a, False
    if is_float(a) and is_float(b):
        wider = a if _FLOAT_ORDER.index(a) >= _FLOAT_ORDER.index(b) else b
        return wider, True
    if is_float(a):
        return a, False
    if is_float(b):
        return b, False
    if is_int(a) and is_int(b):
        wider = a if _INT_ORDER.index(a) >= _INT_ORDER.index(b) else b
        return wider, False
    if a == "bool":
        return b, False
    if b == "bool":
        return a, False
    return UNKNOWN_DTYPE, False


def resolve_dim(dim, bindings: Bindings):
    """Follow a symbol through the binding map to its current value."""
    seen = set()
    while isinstance(dim, str) and dim in bindings and dim not in seen:
        seen.add(dim)
        dim = bindings[dim]
    if dim == "*":
        return UNKNOWN_DIM
    return dim


def unify_dim(a, b, bindings: Bindings):
    """Exact unification of two dims under ``bindings``.

    Returns ``(dim, conflict)``; ``conflict`` is a :class:`DimConflict`
    when the two dims are provably different.  Symbols bind: a symbol
    meeting an ``int`` (or another symbol) records the equality in
    ``bindings`` so later uses of the symbol see it.
    """
    a = resolve_dim(a, bindings)
    b = resolve_dim(b, bindings)
    if a == UNKNOWN_DIM:
        return b, None
    if b == UNKNOWN_DIM:
        return a, None
    if a == b:
        return a, None
    if isinstance(a, int) and isinstance(b, int):
        return UNKNOWN_DIM, DimConflict(f"dims {a} and {b} cannot be equal")
    # At least one side is an unbound symbol: bind it to the other side.
    if isinstance(a, str):
        bindings[a] = b
        return b, None
    bindings[b] = a
    return a, None


def broadcast_dims(a_dims: tuple, b_dims: tuple, bindings: Bindings):
    """Broadcast two dim tuples (NumPy rules), binding symbols on the way.

    Returns ``(dims, conflict)``.  A literal ``1`` stretches without
    binding; anything else must unify exactly.  Only *proven* mismatches
    (two distinct literals, or a symbol already bound elsewhere) conflict
    — two distinct free symbols stay unconstrained rather than guessing.
    """
    rank = max(len(a_dims), len(b_dims))
    a_pad = (1,) * (rank - len(a_dims)) + tuple(a_dims)
    b_pad = (1,) * (rank - len(b_dims)) + tuple(b_dims)
    out = []
    for a, b in zip(a_pad, b_pad):
        ra = resolve_dim(a, bindings)
        rb = resolve_dim(b, bindings)
        if ra == 1:
            out.append(rb)
            continue
        if rb == 1:
            out.append(ra)
            continue
        if ra == UNKNOWN_DIM:
            out.append(rb)
            continue
        if rb == UNKNOWN_DIM:
            out.append(ra)
            continue
        if ra == rb:
            out.append(ra)
            continue
        if isinstance(ra, int) and isinstance(rb, int):
            return None, DimConflict(
                f"shapes {format_dims(a_dims)} and {format_dims(b_dims)} "
                f"do not broadcast (dims {ra} vs {rb})"
            )
        # A free symbol against a literal or another symbol: the operation
        # *requires* them equal, so record the equality.
        if isinstance(ra, str):
            bindings[ra] = rb
            out.append(rb)
        else:
            bindings[rb] = ra
            out.append(ra)
    return tuple(out), None


def format_dims(dims: tuple) -> str:
    """Render a dim tuple in the contract grammar's spelling."""
    if len(dims) == 1:
        return f"({dims[0]},)"
    return "(" + ",".join(str(d) for d in dims) + ")"
