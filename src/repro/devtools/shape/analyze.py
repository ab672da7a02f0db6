"""The ``spotshape`` abstract interpreter and its SW200-series rules.

Each function body is interpreted once, front to back, over the abstract
domain in :mod:`repro.devtools.shape.domain`: parameters declared with
``@shapes`` seed the environment with symbolic arrays, NumPy calls and
operators have transfer functions, and everything unmodeled evaluates to
"no information".  The checker therefore only reports **proven**
inconsistencies — unknowns pass silently.

Rule inventory
--------------
- ``SW200`` — a call site (or return) violates the callee's declared
  ``@shapes`` contract: wrong rank, a dim that cannot unify, or a dtype
  that contradicts the spec's suffix.
- ``SW201`` — two operations inside one function force the same symbolic
  dim (or two literals) to incompatible values — a latent shape bug even
  when no contract is declared.
- ``SW202`` — implicit dtype drift: a float64/float32 mix that silently
  widens, ``astype`` truncating non-integral floats to ints, or
  ``astype`` silently narrowing float64 to float32.
- ``SW203`` — an array allocation (``np.zeros``/``concatenate``/...)
  inside a loop in a **hot** module (:data:`HOT_PREFIXES`): allocation
  churn on the paths the paper's control loop runs every interval.
- ``SW204`` — a Python-level scalar loop over an array in a hot module
  (``for x in arr`` / ``for i in range(len(arr))``): the interpreter
  overhead NumPy vectorization exists to avoid.

Parsing, suppression comments and the ``SW000``/``SW009`` engine rules
belong to the driver, :mod:`repro.devtools.check`.
"""

from __future__ import annotations

import ast

from repro.devtools.interp import FunctionInterpreter
from repro.devtools.rules import Finding, ModuleContext
from repro.devtools.shape.domain import (
    UNKNOWN_DIM,
    UNKNOWN_DTYPE,
    ArrayVal,
    broadcast_dims,
    format_dims,
    is_float,
    is_int,
    promote,
    resolve_dim,
    scalar,
    unify_dim,
)
from repro.devtools.specs import DTYPE_CODES, ShapeSpec, parse_spec
from repro.devtools.summaries import (
    Contract,
    ContractTable,
    ModuleContracts,
    extract_contracts,
)

__all__ = [
    "SHAPE_RULES",
    "HOT_PREFIXES",
    "analyze_module",
    "summarize",
]

SHAPE_RULES = {
    "SW200": "call site violates the callee's declared @shapes contract",
    "SW201": "inconsistent symbolic-dim binding within one function",
    "SW202": "implicit dtype widening/narrowing (f8/f4 mix, float->int)",
    "SW203": "array allocation inside a loop in a hot module",
    "SW204": "Python-level scalar loop over an array in a hot module",
}


#: Modules whose loops run once per control interval (or per simulated
#: event) — the paper's hot paths, where SW203/SW204 apply.
HOT_PREFIXES = ("repro.solvers", "repro.simulator", "repro.core")

_SHAPES_DECORATORS = frozenset({"repro.devtools.contracts.shapes"})


_NUMPY_DTYPE_ATTRS = {
    "float64": "float64",
    "float32": "float32",
    "float16": "float16",
    "int64": "int64",
    "int32": "int32",
    "int16": "int16",
    "int8": "int8",
    "uint64": "uint64",
    "uint32": "uint32",
    "uint16": "uint16",
    "uint8": "uint8",
    "bool_": "bool",
    "double": "float64",
    "single": "float32",
}

_DTYPE_STRINGS = {
    "float64": "float64", "f8": "float64", "<f8": "float64", "double": "float64",
    "float32": "float32", "f4": "float32", "<f4": "float32",
    "int64": "int64", "i8": "int64", "<i8": "int64",
    "int32": "int32", "i4": "int32", "<i4": "int32",
    "uint64": "uint64", "u8": "uint64",
    "bool": "bool", "b1": "bool", "?": "bool",
}

_BUILTIN_DTYPE_NAMES = {"float": "float64", "int": "int64", "bool": "bool"}

# NumPy calls that materialize a fresh array — the SW203 set.  Cheap
# views/wrappers (asarray, ravel on contiguous data, transpose) are
# deliberately excluded.
_LOOP_ALLOCATORS = frozenset(
    {
        "zeros", "ones", "empty", "full", "zeros_like", "ones_like",
        "empty_like", "full_like", "array", "arange", "linspace", "eye",
        "concatenate", "stack", "vstack", "hstack", "tile", "repeat",
    }
)

_ALLOC_FLOAT = frozenset({"zeros", "ones", "empty"})
_LIKE_ALLOC = {
    "zeros_like": None, "ones_like": None, "empty_like": None,
    "full_like": None,
}
_ELEMENTWISE_KEEP = frozenset(
    {"abs", "absolute", "clip", "negative", "positive", "copy",
     "nan_to_num", "sign", "sort", "flip", "ascontiguousarray"}
)
_ELEMENTWISE_FLOAT = frozenset(
    {"exp", "log", "log1p", "log2", "log10", "expm1", "sqrt", "square",
     "tanh", "sin", "cos", "tan", "reciprocal", "interp"}
)
_ROUNDING = frozenset({"floor", "ceil", "rint", "trunc", "round", "around"})
_PREDICATES = frozenset(
    {"isfinite", "isnan", "isinf", "signbit", "logical_and", "logical_or",
     "logical_not", "logical_xor", "isclose"}
)
_BINARY_BROADCAST = frozenset(
    {"maximum", "minimum", "add", "multiply", "subtract", "divide",
     "true_divide", "power", "fmax", "fmin", "hypot", "mod", "remainder"}
)
_REDUCTIONS = frozenset(
    {"sum", "max", "min", "mean", "prod", "median", "std", "var",
     "amax", "amin", "nansum", "nanmax", "nanmin", "nanmean", "all", "any",
     "argmin", "argmax", "ptp"}
)
_METHOD_REDUCTIONS = frozenset(
    {"sum", "max", "min", "mean", "prod", "std", "var", "all", "any",
     "argmin", "argmax"}
)


def _is_hot(module: str | None) -> bool:
    if module is None:
        return False
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in HOT_PREFIXES
    )


def _spec_dims(spec: ShapeSpec) -> tuple:
    """Contract dims as domain dims (``*`` becomes unknown)."""
    return tuple(UNKNOWN_DIM if d == "*" else d for d in spec.dims)


def _spec_dtype(spec: ShapeSpec) -> str:
    return DTYPE_CODES[spec.dtype] if spec.dtype is not None else UNKNOWN_DTYPE


def _format_val(val: ArrayVal) -> str:
    text = format_dims(val.dims)
    if val.dtype != UNKNOWN_DTYPE:
        text += f" {val.dtype}"
    return text


class _ShapeInterpreter(FunctionInterpreter):
    """The shape domain: symbolic arrays and their transfer functions."""

    EXPECTED_RULES = frozenset({"SW200", "SW201"})

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.hot = _is_hot(self.module)
        self.bindings: dict = {}
        for name, alternatives in self._param_specs(self.own_contract).items():
            if len(alternatives) != 1:
                continue  # ambiguous until the call site picks one
            alt = alternatives[0]
            self.env[name] = ArrayVal(dims=_spec_dims(alt), dtype=_spec_dtype(alt))

    @staticmethod
    def _param_specs(contract: Contract | None) -> dict[str, tuple[ShapeSpec, ...]]:
        if contract is None:
            return {}
        return {name: parse_spec(spec) for name, spec in contract.params}

    # ----------------------------------------------------------- statements
    def assign(self, target: ast.expr, val: ArrayVal | None, value_node) -> None:
        if isinstance(target, ast.Name):
            if val is None:
                self.env.pop(target.id, None)
            else:
                self.env[target.id] = val
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign(elt, None, value_node)
        # Attribute/Subscript stores mutate in place: shape is unchanged.

    def loop_element(self, stmt: ast.For | ast.AsyncFor, val) -> ArrayVal | None:
        if self.hot:
            self._check_scalar_loop(stmt, val)
        if val is not None and val.rank >= 1:
            return ArrayVal(dims=val.dims[1:], dtype=val.dtype, integral=val.integral)
        return None

    def _check_scalar_loop(self, stmt: ast.For | ast.AsyncFor, val) -> None:
        if val is not None and val.rank >= 1:
            self.report(
                "SW204",
                stmt,
                f"Python-level loop over array elements in `{self.qualname}`; "
                f"vectorize with NumPy operations",
            )
            return
        # for i in range(len(arr)) / range(arr.shape[k])
        it = stmt.iter
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
            and it.func.id not in self.locals_
        ):
            return
        for arg in it.args:
            if (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id == "len"
                and arg.args
                and self.eval(arg.args[0]) is not None
            ) or (
                isinstance(arg, ast.Subscript)
                and isinstance(arg.value, ast.Attribute)
                and arg.value.attr == "shape"
                and self.eval(arg.value.value) is not None
            ):
                self.report(
                    "SW204",
                    stmt,
                    f"Python-level scalar loop over array indices in "
                    f"`{self.qualname}`; vectorize with NumPy operations",
                )
                return

    def check_return(self, stmt: ast.Return, val: ArrayVal) -> None:
        ret_spec = parse_spec(self.own_contract.ret)
        ok, detail = self._match_alternatives(val, ret_spec, self.bindings)
        if not ok:
            self.report(
                "SW200",
                stmt,
                f"`{self.qualname}` returns {_format_val(val)} but declares "
                f"ret spec {self.own_contract.ret} ({detail})",
            )

    # ---------------------------------------------------------- expressions
    def eval(self, node: ast.expr) -> ArrayVal | None:
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return scalar("bool")
            if isinstance(node.value, int):
                return scalar("int64")
            if isinstance(node.value, float):
                return scalar("float64")
            return None
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.MatMult):
                return self._matmul_vals(
                    self.eval(node.left), self.eval(node.right), node
                )
            return self.binop(
                self.eval(node.left), self.eval(node.right), node.op, node
            )
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                self.eval(node.operand)
                return scalar("bool")
            return self.eval(node.operand)
        if isinstance(node, ast.Compare):
            vals = [self.eval(node.left)] + [self.eval(c) for c in node.comparators]
            dims: tuple | None = ()
            for val in vals:
                if val is None:
                    return None
                if dims is None:
                    continue
                merged, conflict = broadcast_dims(dims, val.dims, self.bindings)
                if conflict is not None:
                    self.report(
                        "SW201",
                        node,
                        f"comparison in `{self.qualname}`: {conflict.detail}",
                    )
                    return None
                dims = merged
            return ArrayVal(dims=dims or (), dtype="bool")
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.Subscript):
            return self._subscript(node)
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            a = self.eval(node.body)
            b = self.eval(node.orelse)
            if a is not None and b is not None and a.dims == b.dims:
                dtype, _ = promote(a.dtype, b.dtype)
                return ArrayVal(dims=a.dims, dtype=dtype)
            return None
        if isinstance(node, (ast.List, ast.Tuple)):
            return None  # only meaningful inside asarray/concatenate/...
        return None

    # ----------------------------------------------------------- operators
    def _promote(self, a: str, b: str, node: ast.AST) -> str:
        """The result dtype of mixing ``a`` and ``b``; a silent float64/
        float32 widening is SW202."""
        dtype, widened = promote(a, b)
        if widened:
            self.report(
                "SW202",
                node,
                f"float64/float32 mix in `{self.qualname}` silently widens "
                f"to {dtype}; convert one operand explicitly",
            )
        return dtype

    def binop(self, a, b, op: ast.operator, node: ast.AST):
        if a is None or b is None:
            return None
        dims, conflict = broadcast_dims(a.dims, b.dims, self.bindings)
        if conflict is not None:
            self.report(
                "SW201",
                node,
                f"operands in `{self.qualname}` cannot broadcast: "
                f"{conflict.detail}",
            )
            return None
        dtype = self._promote(a.dtype, b.dtype, node)
        integral = False
        if isinstance(op, ast.Div):
            if is_int(dtype) or dtype == "bool":
                dtype = "float64"
        elif isinstance(op, ast.FloorDiv):
            integral = is_float(dtype)
        elif isinstance(op, (ast.Add, ast.Sub, ast.Mult)):
            integral = a.integral and b.integral
        return ArrayVal(dims=dims, dtype=dtype, integral=integral)

    def _matmul_vals(self, a, b, node: ast.AST):
        if a is None or b is None:
            return None
        if a.rank == 0 or b.rank == 0 or a.rank > 2 or b.rank > 2:
            return None
        inner_a = a.dims[-1]
        inner_b = b.dims[0] if b.rank >= 1 else UNKNOWN_DIM
        _, conflict = unify_dim(inner_a, inner_b, self.bindings)
        if conflict is not None:
            self.report(
                "SW201",
                node,
                f"matmul in `{self.qualname}`: inner dims of "
                f"{format_dims(a.dims)} @ {format_dims(b.dims)} must match "
                f"({conflict.detail})",
            )
            return None
        out: list = []
        if a.rank == 2:
            out.append(a.dims[0])
        if b.rank == 2:
            out.append(b.dims[1])
        dtype = self._promote(a.dtype, b.dtype, node)
        return ArrayVal(dims=tuple(out), dtype=dtype)

    # ------------------------------------------------------------- indexing
    def _subscript(self, node: ast.Subscript):
        # x.shape[i] -> the i-th dim as a scalar int
        if (
            isinstance(node.value, ast.Attribute)
            and node.value.attr == "shape"
            and self.eval(node.value.value) is not None
        ):
            return scalar("int64")
        base = self.eval(node.value)
        if base is None:
            return None
        items = (
            list(node.slice.elts)
            if isinstance(node.slice, ast.Tuple)
            else [node.slice]
        )
        # Boolean-mask indexing compresses to an unknown-length vector.
        if len(items) == 1:
            mask = self.eval(items[0])
            if mask is not None and mask.dtype == "bool" and mask.rank >= 1:
                return ArrayVal(
                    dims=(UNKNOWN_DIM,), dtype=base.dtype,
                    integral=base.integral,
                )
        dims: list = []
        remaining = list(base.dims)
        for item in items:
            if isinstance(item, ast.Constant) and item.value is None:
                dims.append(1)  # np.newaxis
                continue
            if isinstance(item, ast.Constant) and item.value is Ellipsis:
                return None
            if not remaining:
                return None
            if isinstance(item, ast.Slice):
                if item.lower is None and item.upper is None and item.step is None:
                    dims.append(remaining.pop(0))
                else:
                    remaining.pop(0)
                    dims.append(UNKNOWN_DIM)
                continue
            idx = self.eval(item)
            if idx is not None and idx.rank >= 1:
                # Fancy integer indexing: result takes the index's shape.
                remaining.pop(0)
                dims.extend(idx.dims)
                continue
            remaining.pop(0)  # scalar index drops the dim
        dims.extend(remaining)
        return ArrayVal(dims=tuple(dims), dtype=base.dtype, integral=base.integral)

    def _attribute(self, node: ast.Attribute):
        base = self.eval(node.value)
        if base is None:
            return None
        if node.attr == "T":
            return ArrayVal(
                dims=tuple(reversed(base.dims)), dtype=base.dtype,
                integral=base.integral,
            )
        if node.attr in ("size", "ndim", "itemsize", "nbytes"):
            return scalar("int64")
        return None

    # ----------------------------------------------------------------- calls
    def builtin_call(self, name: str, node: ast.Call):
        for arg in node.args:
            self.eval(arg)
        if name == "float":
            return scalar("float64")
        if name == "int":
            return scalar("int64")
        if name == "bool":
            return scalar("bool")
        if name == "len":
            return scalar("int64")
        if name == "abs" and node.args:
            return self.eval(node.args[0])
        return None

    # ----------------------------------------------------- numpy transfer
    def _kwarg(self, node: ast.Call, name: str) -> ast.expr | None:
        for kw in node.keywords:
            if kw.arg == name:
                return kw.value
        return None

    def _dtype_from_node(self, node: ast.expr | None) -> str:
        if node is None:
            return UNKNOWN_DTYPE
        if isinstance(node, ast.Attribute):
            resolved = self.resolve(node)
            if resolved is not None and resolved.startswith("numpy."):
                return _NUMPY_DTYPE_ATTRS.get(
                    resolved[len("numpy."):], UNKNOWN_DTYPE
                )
            return UNKNOWN_DTYPE
        if isinstance(node, ast.Name):
            return _BUILTIN_DTYPE_NAMES.get(node.id, UNKNOWN_DTYPE)
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return _DTYPE_STRINGS.get(node.value, UNKNOWN_DTYPE)
        return UNKNOWN_DTYPE

    def _dim_from_node(self, node: ast.expr):
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return node.value if node.value >= 0 else UNKNOWN_DIM
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "shape"
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, int)
        ):
            base = self.eval(node.value.value)
            if base is not None and -base.rank <= node.slice.value < base.rank:
                return base.dims[node.slice.value]
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and node.args
        ):
            base = self.eval(node.args[0])
            if base is not None and base.rank >= 1:
                return base.dims[0]
        return UNKNOWN_DIM

    def _shape_from_node(self, node: ast.expr) -> tuple:
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(self._dim_from_node(e) for e in node.elts)
        if isinstance(node, ast.Attribute) and node.attr == "shape":
            base = self.eval(node.value)
            if base is not None:
                return base.dims
            return (UNKNOWN_DIM,)
        return (self._dim_from_node(node),)

    def _literal_array(self, node: ast.expr) -> ArrayVal | None:
        """Abstract value of a (possibly nested) list/tuple literal."""
        if not isinstance(node, (ast.List, ast.Tuple)):
            val = self.eval(node)
            return val
        elems = [self._literal_array(e) for e in node.elts]
        if not elems or any(e is None for e in elems):
            return None
        ranks = {e.rank for e in elems}
        if len(ranks) != 1:
            return None
        dtype = elems[0].dtype
        for e in elems[1:]:
            dtype, _ = promote(dtype, e.dtype)
        inner = elems[0].dims
        for e in elems[1:]:
            if e.dims != inner:
                inner = tuple(UNKNOWN_DIM for _ in inner)
                break
        return ArrayVal(dims=(len(elems),) + inner, dtype=dtype)

    def _flag_loop_alloc(self, name: str, node: ast.Call) -> None:
        if self.hot and self.loop_depth > 0 and name in _LOOP_ALLOCATORS:
            self.report(
                "SW203",
                node,
                f"`np.{name}(...)` allocates a fresh array inside a loop in "
                f"`{self.qualname}`; hoist or preallocate outside the loop",
            )

    def _reduce(self, val: ArrayVal, node: ast.Call, name: str, axis_arg):
        axis_node = axis_arg if axis_arg is not None else self._kwarg(node, "axis")
        int_result = name in ("argmin", "argmax")
        bool_result = name in ("all", "any")
        dtype = val.dtype
        if bool_result:
            dtype = "bool"
        elif int_result:
            dtype = "int64"
        elif name in ("mean", "std", "var", "nanmean", "median"):
            dtype = "float64" if not is_float(dtype) else dtype
        elif dtype == "bool":
            dtype = "int64"  # sum/prod of bools counts
        if axis_node is None:
            return scalar(dtype)
        if isinstance(axis_node, ast.Constant):
            if axis_node.value is None:
                return scalar(dtype)
            if isinstance(axis_node.value, int):
                axis = axis_node.value
                if -val.rank <= axis < val.rank:
                    dims = list(val.dims)
                    del dims[axis]
                    return ArrayVal(dims=tuple(dims), dtype=dtype)
        return None

    def numpy_call(self, name: str, node: ast.Call):
        self._flag_loop_alloc(name, node)
        args = node.args
        if any(isinstance(a, ast.Starred) for a in args):
            return None
        dtype_kw = self._dtype_from_node(self._kwarg(node, "dtype"))

        if name in _ALLOC_FLOAT:
            dims = self._shape_from_node(args[0]) if args else ()
            dtype = dtype_kw if dtype_kw != UNKNOWN_DTYPE else "float64"
            return ArrayVal(dims=dims, dtype=dtype)
        if name == "full":
            dims = self._shape_from_node(args[0]) if args else ()
            dtype = dtype_kw
            if dtype == UNKNOWN_DTYPE and len(args) >= 2:
                fill = self.eval(args[1])
                if fill is not None:
                    dtype = fill.dtype
            return ArrayVal(dims=dims, dtype=dtype)
        if name in _LIKE_ALLOC:
            base = self.eval(args[0]) if args else None
            if base is None:
                return None
            dtype = dtype_kw if dtype_kw != UNKNOWN_DTYPE else base.dtype
            return ArrayVal(dims=base.dims, dtype=dtype)
        if name in ("asarray", "array", "ascontiguousarray", "asanyarray"):
            val = self._literal_array(args[0]) if args else None
            if val is None:
                return None
            dtype = dtype_kw if dtype_kw != UNKNOWN_DTYPE else val.dtype
            integral = val.integral and dtype == val.dtype
            return ArrayVal(dims=val.dims, dtype=dtype, integral=integral)
        if name == "arange":
            dtype = dtype_kw
            if dtype == UNKNOWN_DTYPE:
                consts = [a.value for a in args if isinstance(a, ast.Constant)]
                if consts and all(isinstance(c, int) for c in consts):
                    dtype = "int64"
                elif any(isinstance(c, float) for c in consts):
                    dtype = "float64"
            return ArrayVal(dims=(UNKNOWN_DIM,), dtype=dtype)
        if name == "linspace":
            num = self._kwarg(node, "num") or (args[2] if len(args) > 2 else None)
            dim = self._dim_from_node(num) if num is not None else 50
            return ArrayVal(dims=(dim,), dtype="float64")
        if name == "eye":
            dim = self._dim_from_node(args[0]) if args else UNKNOWN_DIM
            dtype = dtype_kw if dtype_kw != UNKNOWN_DTYPE else "float64"
            return ArrayVal(dims=(dim, dim), dtype=dtype)
        if name == "concatenate":
            return self._concatenate(node)
        if name == "stack":
            return self._stack(node)
        if name == "where" and len(args) == 3:
            self.eval(args[0])
            return self.binop(
                self.eval(args[1]), self.eval(args[2]), ast.Add(), node
            )
        if name in _BINARY_BROADCAST and len(args) >= 2:
            result = self.binop(
                self.eval(args[0]), self.eval(args[1]), ast.Add(), node
            )
            if result is not None and name in ("divide", "true_divide"):
                dtype = result.dtype
                if is_int(dtype) or dtype == "bool":
                    dtype = "float64"
                result = ArrayVal(dims=result.dims, dtype=dtype)
            return result
        if name in _ELEMENTWISE_KEEP and args:
            return self.eval(args[0])
        if name in _ELEMENTWISE_FLOAT and args:
            val = self.eval(args[0])
            if val is None:
                return None
            dtype = val.dtype if is_float(val.dtype) else (
                "float64" if val.dtype != UNKNOWN_DTYPE else UNKNOWN_DTYPE
            )
            return ArrayVal(dims=val.dims, dtype=dtype)
        if name in _ROUNDING and args:
            val = self.eval(args[0])
            if val is None:
                return None
            return ArrayVal(dims=val.dims, dtype=val.dtype, integral=True)
        if name in _PREDICATES and args:
            val = self.eval(args[0])
            if val is None:
                return None
            return ArrayVal(dims=val.dims, dtype="bool")
        if name in _REDUCTIONS and args:
            val = self.eval(args[0])
            if val is None:
                return None
            axis_arg = args[1] if len(args) > 1 else None
            return self._reduce(val, node, name, axis_arg)
        if name in ("argsort", "sort") and args:
            val = self.eval(args[0])
            if val is None:
                return None
            dtype = "int64" if name == "argsort" else val.dtype
            return ArrayVal(dims=val.dims, dtype=dtype)
        if name == "count_nonzero":
            return scalar("int64")
        if name in ("cumsum", "cumprod") and args:
            val = self.eval(args[0])
            if val is None:
                return None
            if self._kwarg(node, "axis") is not None or len(args) > 1:
                return val
            if val.rank <= 1:
                return ArrayVal(dims=val.dims or (UNKNOWN_DIM,), dtype=val.dtype)
            return ArrayVal(dims=(UNKNOWN_DIM,), dtype=val.dtype)
        if name == "diff" and args:
            val = self.eval(args[0])
            if val is None or val.rank == 0:
                return None
            dims = list(val.dims)
            last = resolve_dim(dims[-1], self.bindings)
            dims[-1] = last - 1 if isinstance(last, int) and last >= 1 else UNKNOWN_DIM
            return ArrayVal(dims=tuple(dims), dtype=val.dtype)
        if name in ("dot", "matmul") and len(args) >= 2:
            return self._matmul_vals(self.eval(args[0]), self.eval(args[1]), node)
        if name == "outer" and len(args) >= 2:
            a, b = self.eval(args[0]), self.eval(args[1])
            if a is None or b is None:
                return None
            da = a.dims[0] if a.rank >= 1 else 1
            db = b.dims[0] if b.rank >= 1 else 1
            dtype, _ = promote(a.dtype, b.dtype)
            return ArrayVal(dims=(da, db), dtype=dtype)
        if name == "reshape" and len(args) >= 2:
            val = self.eval(args[0])
            if val is None:
                return None
            return ArrayVal(
                dims=self._shape_from_node(args[1]), dtype=val.dtype,
                integral=val.integral,
            )
        if name == "ravel" and args:
            return self._ravel(self.eval(args[0]))
        if name == "transpose" and args:
            val = self.eval(args[0])
            if val is None:
                return None
            return ArrayVal(
                dims=tuple(reversed(val.dims)), dtype=val.dtype,
                integral=val.integral,
            )
        if name == "expand_dims" and len(args) >= 2:
            val = self.eval(args[0])
            axis = args[1]
            if (
                val is not None
                and isinstance(axis, ast.Constant)
                and isinstance(axis.value, int)
                and -val.rank - 1 <= axis.value <= val.rank
            ):
                dims = list(val.dims)
                pos = axis.value if axis.value >= 0 else val.rank + 1 + axis.value
                dims.insert(pos, 1)
                return ArrayVal(dims=tuple(dims), dtype=val.dtype)
            return None
        if name == "atleast_1d" and args:
            val = self.eval(args[0])
            if val is None:
                return None
            return val if val.rank >= 1 else ArrayVal((1,), val.dtype)
        if name == "atleast_2d" and args:
            val = self.eval(args[0])
            if val is None:
                return None
            if val.rank >= 2:
                return val
            if val.rank == 1:
                return ArrayVal((1,) + val.dims, val.dtype)
            return ArrayVal((1, 1), val.dtype)
        if name == "linalg.norm":
            if self._kwarg(node, "axis") is None:
                return scalar("float64")
            return None
        if name == "linalg.solve" and len(args) >= 2:
            self.eval(args[0])
            b = self.eval(args[1])
            if b is None:
                return None
            return ArrayVal(dims=b.dims, dtype="float64")
        if name == "allclose":
            for arg in args:
                self.eval(arg)
            return scalar("bool")
        if name == "shape" and args:
            self.eval(args[0])
            return None
        for arg in args:
            self.eval(arg)
        return None

    def _concatenate(self, node: ast.Call):
        if not node.args:
            return None
        seq = node.args[0]
        if not isinstance(seq, (ast.List, ast.Tuple)):
            return None
        vals = [self.eval(e) for e in seq.elts]
        if not vals or any(v is None for v in vals):
            return None
        axis_node = self._kwarg(node, "axis") or (
            node.args[1] if len(node.args) > 1 else None
        )
        axis = 0
        if isinstance(axis_node, ast.Constant) and isinstance(axis_node.value, int):
            axis = axis_node.value
        ranks = {v.rank for v in vals}
        if len(ranks) != 1:
            self.report(
                "SW201",
                node,
                f"concatenate in `{self.qualname}` mixes ranks "
                f"{sorted(ranks)}; operands must have equal rank",
            )
            return None
        rank = ranks.pop()
        if rank == 0 or not (-rank <= axis < rank):
            return None
        axis %= rank
        out: list = []
        dtype = vals[0].dtype
        for v in vals[1:]:
            dtype = self._promote(dtype, v.dtype, node)
        for i in range(rank):
            if i == axis:
                dims_i = [resolve_dim(v.dims[i], self.bindings) for v in vals]
                if all(isinstance(d, int) for d in dims_i):
                    out.append(sum(dims_i))
                else:
                    out.append(UNKNOWN_DIM)
                continue
            merged = vals[0].dims[i]
            for v in vals[1:]:
                merged, conflict = unify_dim(merged, v.dims[i], self.bindings)
                if conflict is not None:
                    self.report(
                        "SW201",
                        node,
                        f"concatenate in `{self.qualname}`: non-axis dims "
                        f"must match ({conflict.detail})",
                    )
                    return None
            out.append(merged)
        return ArrayVal(dims=tuple(out), dtype=dtype)

    def _stack(self, node: ast.Call):
        if not node.args:
            return None
        seq = node.args[0]
        if not isinstance(seq, (ast.List, ast.Tuple)):
            return None
        vals = [self.eval(e) for e in seq.elts]
        if not vals or any(v is None for v in vals):
            return None
        merged = vals[0].dims
        dtype = vals[0].dtype
        for v in vals[1:]:
            if v.rank != vals[0].rank:
                self.report(
                    "SW201",
                    node,
                    f"stack in `{self.qualname}` mixes ranks; operands must "
                    f"have identical shape",
                )
                return None
            pair = []
            for a, b in zip(merged, v.dims):
                d, conflict = unify_dim(a, b, self.bindings)
                if conflict is not None:
                    self.report(
                        "SW201",
                        node,
                        f"stack in `{self.qualname}`: operand dims must "
                        f"match ({conflict.detail})",
                    )
                    return None
                pair.append(d)
            merged = tuple(pair)
            dtype, _ = promote(dtype, v.dtype)
        return ArrayVal(dims=(len(vals),) + merged, dtype=dtype)

    def _ravel(self, val: ArrayVal | None):
        if val is None:
            return None
        if val.rank == 0:
            return ArrayVal((1,), val.dtype, integral=val.integral)
        if val.rank == 1:
            return val
        resolved = [resolve_dim(d, self.bindings) for d in val.dims]
        if all(isinstance(d, int) for d in resolved):
            total = 1
            for d in resolved:
                total *= d
            return ArrayVal((total,), val.dtype, integral=val.integral)
        return ArrayVal((UNKNOWN_DIM,), val.dtype, integral=val.integral)

    # ------------------------------------------------------- method calls
    def method_call(self, func: ast.Attribute, node: ast.Call):
        base, attr, args = self.eval(func.value), func.attr, node.args
        if base is None:
            for arg in args:
                self.eval(arg)
            return None
        if attr == "astype":
            target = self._dtype_from_node(
                args[0] if args else self._kwarg(node, "dtype")
            )
            if target != UNKNOWN_DTYPE and base.dtype != UNKNOWN_DTYPE:
                if is_float(base.dtype) and is_int(target) and not base.integral:
                    self.report(
                        "SW202",
                        node,
                        f"`.astype({target})` in `{self.qualname}` truncates "
                        f"{base.dtype} values; round explicitly "
                        f"(np.floor/np.rint) before converting",
                    )
                elif base.dtype == "float64" and target == "float32":
                    self.report(
                        "SW202",
                        node,
                        f"`.astype(float32)` in `{self.qualname}` silently "
                        f"narrows float64; make the precision loss explicit "
                        f"or keep float64",
                    )
            integral = base.integral and is_float(target)
            return ArrayVal(dims=base.dims, dtype=target, integral=integral)
        if attr in ("ravel", "flatten"):
            return self._ravel(base)
        if attr == "reshape":
            if len(args) == 1:
                dims = self._shape_from_node(args[0])
            else:
                dims = tuple(self._dim_from_node(a) for a in args)
            return ArrayVal(dims=dims, dtype=base.dtype, integral=base.integral)
        if attr == "copy":
            return base
        if attr == "item":
            return scalar(base.dtype)
        if attr in ("clip", "round"):
            integral = base.integral or attr == "round"
            return ArrayVal(dims=base.dims, dtype=base.dtype, integral=integral)
        if attr in _METHOD_REDUCTIONS:
            return self._reduce(base, node, attr, args[0] if args else None)
        if attr == "argsort":
            return ArrayVal(dims=base.dims, dtype="int64")
        if attr == "cumsum":
            if self._kwarg(node, "axis") is not None or args:
                return base
            if base.rank <= 1:
                return base
            return ArrayVal(dims=(UNKNOWN_DIM,), dtype=base.dtype)
        if attr == "dot" and args:
            return self._matmul_vals(base, self.eval(args[0]), node)
        if attr == "transpose" and not args:
            return ArrayVal(
                dims=tuple(reversed(base.dims)), dtype=base.dtype,
                integral=base.integral,
            )
        for arg in args:
            self.eval(arg)
        return None

    # -------------------------------------------------- contract call sites
    def _match_spec(
        self, val: ArrayVal, spec: ShapeSpec, bindings: dict
    ) -> str | None:
        """None when ``val`` can satisfy ``spec``; else the mismatch."""
        dims = _spec_dims(spec)
        if val.rank != len(dims):
            return (
                f"rank {val.rank} vs declared {format_dims(dims)}"
            )
        trial = dict(bindings)
        for actual, declared in zip(val.dims, dims):
            _, conflict = unify_dim(actual, declared, trial)
            if conflict is not None:
                return conflict.detail
        want = _spec_dtype(spec)
        if (
            want != UNKNOWN_DTYPE
            and val.dtype != UNKNOWN_DTYPE
            and val.dtype != want
        ):
            return f"dtype {val.dtype} vs declared {spec.dtype} ({want})"
        bindings.clear()
        bindings.update(trial)
        return None

    def _match_alternatives(
        self, val: ArrayVal, alternatives: tuple[ShapeSpec, ...], bindings: dict
    ) -> tuple[bool, str]:
        first_detail = ""
        for alt in alternatives:
            detail = self._match_spec(val, alt, bindings)
            if detail is None:
                return True, ""
            if not first_detail:
                first_detail = detail
        return False, first_detail

    def contract_call(self, contract: Contract, node: ast.Call):
        bound = self.bind_arguments(contract, node)
        if bound is None:
            return None
        param_specs = self._param_specs(contract)
        call_bindings: dict = {}
        for pname, arg in bound:
            val = self.eval(arg)
            if pname not in param_specs or val is None:
                continue
            ok, detail = self._match_alternatives(
                val, param_specs[pname], call_bindings
            )
            if not ok:
                spec_text = dict(contract.params)[pname]
                self.report(
                    "SW200",
                    arg,
                    f"call to `{contract.qualname}` passes `{pname}` as "
                    f"{_format_val(val)}, but its contract declares "
                    f"{spec_text} ({detail})",
                )
                return None
        if contract.ret is None:
            return None
        ret_spec = parse_spec(contract.ret)
        if len(ret_spec) != 1:
            return None
        alt = ret_spec[0]
        dims = []
        for d in alt.dims:
            if d == "*":
                dims.append(UNKNOWN_DIM)
            elif isinstance(d, str) and d not in call_bindings:
                dims.append(UNKNOWN_DIM)  # unbound callee symbol
            else:
                dims.append(resolve_dim(d, call_bindings))
        return ArrayVal(dims=tuple(dims), dtype=_spec_dtype(alt))


# --------------------------------------------------------------------------
# Module + project analysis
# --------------------------------------------------------------------------


def summarize(ctx: ModuleContext) -> ModuleContracts:
    """Pass A for one parsed module: its ``@shapes`` contracts."""
    return extract_contracts(ctx, _SHAPES_DECORATORS, parse_spec)


def analyze_module(ctx: ModuleContext, table: ContractTable) -> list[Finding]:
    """Pass B for one parsed module: every function against the table."""
    return _ShapeInterpreter.check_module(ctx, table)
