"""The ``spotunits`` abstract interpreter and its SW300-series rules.

Each function body is interpreted once, front to back, over the units
domain in :mod:`repro.devtools.units.domain`: parameters declared with
``@units`` seed the environment, ``@field_units`` tables give attribute
loads a unit, the named constants in :mod:`repro.units` carry their
conversion units, ``time.time()``/``perf_counter()``/``monotonic()``
return wall-clock seconds, and multiplication/division compose exponent
vectors.  Everything unmodeled evaluates to "no information", so the
checker only reports **proven** inconsistencies — unknowns pass.

Rule inventory
--------------
- ``SW300`` — an additive operation (``+``, ``-``, comparison,
  ``min``/``max``) combines genuinely incompatible dimensions
  (``req/s`` + ``usd``).
- ``SW301`` — a call site (or return) violates the callee's declared
  ``@units`` contract.
- ``SW302`` — simulated and wall-clock time mixed in one expression:
  the dimensions agree only if ``wall_time`` were ``sim_time``.
- ``SW303`` — the same dimension combined at different scales
  (``s`` + ``hr``, or a per-interval quantity added to plain time)
  without an explicit conversion.
- ``SW304`` — a bare numeric literal (``3600``, ``1000``, ...) used to
  rescale a value that provably carries a time/request unit; the fix is
  the named constant in :mod:`repro.units`.

``SW000``/``SW009`` are the engine pseudo-rules shared with spotlint,
spotgraph and spotshape (unreadable file; unknown rule id in a
``# spotunits:`` suppression comment).
"""

from __future__ import annotations

import ast
import hashlib
import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable

from repro.devtools.lint import iter_python_files, scan_suppressions
from repro.devtools.rules import Finding, module_name_for
from repro.devtools.shape.summaries import collect_aliases, dotted_target
from repro.devtools.specs import UnitSpec, format_unit, parse_unit
from repro.devtools.units.domain import (
    DIMENSIONLESS,
    classify_mismatch,
    scale_ratio,
    unit_div,
    unit_mul,
    unit_pow,
)
from repro.devtools.units.summaries import (
    UnitContract,
    UnitModuleSummaries,
    UnitTable,
    extract_unit_summaries,
    unit_summary_digest,
)
from repro.units import UNIT_OF

__all__ = [
    "UNIT_RULES",
    "ENGINE_RULES",
    "CACHE_SCHEMA",
    "ANALYSIS_VERSION",
    "analyze_module",
    "analyze_paths",
]

UNIT_RULES = {
    "SW300": "additive operation combines incompatible dimensions",
    "SW301": "call site or return violates a declared @units contract",
    "SW302": "simulated and wall-clock time mixed in one expression",
    "SW303": "same dimension combined at different scales, unconverted",
    "SW304": "bare numeric literal used as a unit-conversion factor",
}

ENGINE_RULES = {
    "SW000": "unreadable or syntactically invalid file",
    "SW009": "suppression comment references an unknown rule id",
}

# Bump whenever analysis output changes shape or semantics: stale cache
# entries from older analyzers are discarded by version mismatch.
ANALYSIS_VERSION = 1
CACHE_SCHEMA = "spotunits-cache/1"

_WALL_SECONDS = parse_unit("wall_s")

#: zero-argument stdlib calls that return wall-clock seconds.
_WALL_CLOCK_CALLS = frozenset(
    {"time.time", "time.perf_counter", "time.monotonic"}
)

#: tagged-scalar constructors from the contracts module: their return
#: value carries the unit they stamp (both import spellings).
_TAGGED_HELPERS: dict[str, str] = {}
for _helper, _unit in (
    ("usd_per_hour", "usd/(server*hr)"),
    ("usd_per_hour_per_rps", "usd/(rps*hr)"),
    ("rps", "req/s"),
):
    _TAGGED_HELPERS[f"repro.devtools.contracts.{_helper}"] = _unit
    _TAGGED_HELPERS[f"repro.devtools.{_helper}"] = _unit

#: dotted constant -> its unit, from the shared registry.
_CONSTANT_UNITS: dict[str, UnitSpec] = {
    f"repro.units.{name}": parse_unit(unit) for name, unit in UNIT_OF.items()
}

#: bare literals that are (almost) always a forgotten unit conversion
#: when they scale a value already carrying a time/request unit.  The
#: hint names the :mod:`repro.units` replacement.
_CONVERSION_LITERALS: dict[float, str] = {
    60.0: "SECONDS_PER_MINUTE (or MINUTES_PER_HOUR)",
    3600.0: "SECONDS_PER_HOUR",
    1000.0: "MS_PER_SECOND",
    24.0: "HOURS_PER_DAY",
    86400.0: "SECONDS_PER_DAY",
    604800.0: "SECONDS_PER_WEEK",
    0.001: "1.0 / MS_PER_SECOND",
}

#: SW304 fires only when the scaled value's dimensions intersect these —
#: a count multiplied by 1000 is not a conversion.
_CONVERTIBLE_DIMS = frozenset({"sim_time", "wall_time", "interval", "request"})

#: NumPy calls whose result keeps the unit of their first argument.
_UNIT_PRESERVING_NUMPY = frozenset(
    {
        "sum", "nansum", "cumsum", "mean", "nanmean", "median", "max",
        "min", "amax", "amin", "nanmax", "nanmin", "abs", "absolute",
        "clip", "asarray", "array", "ascontiguousarray", "copy",
        "nan_to_num", "sort", "flip", "ravel", "diff",
        "atleast_1d", "atleast_2d", "broadcast_to",
    }
)

#: NumPy calls that additively combine their first two arguments.
_ADDITIVE_NUMPY = frozenset(
    {"maximum", "minimum", "fmax", "fmin", "add", "subtract", "hypot"}
)

#: ndarray methods whose result keeps the receiver's unit.
_UNIT_PRESERVING_METHODS = frozenset(
    {"sum", "max", "min", "mean", "copy", "item", "clip", "ravel",
     "flatten", "astype", "reshape"}
)

_OP_WORDS = {
    ast.Add: "adds", ast.Sub: "subtracts", ast.Mod: "takes the modulus of",
}


def _literal_value(node: ast.expr) -> float | None:
    """The numeric value of a literal expression (handles unary minus)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal_value(node.operand)
        return -inner if inner is not None else None
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    ):
        return float(node.value)
    return None


class _FunctionUnitAnalyzer:
    """One forward abstract-interpretation pass over a function body."""

    def __init__(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        *,
        path: str,
        module: str | None,
        aliases: dict[str, str],
        module_symbols: set[str],
        table: UnitTable,
        own_class: str | None = None,
    ) -> None:
        self.fn = fn
        self.qualname = qualname
        self.path = path
        self.module = module
        self.aliases = aliases
        self.module_symbols = module_symbols
        self.table = table
        self.findings: list[Finding] = []
        self.env: dict[str, UnitSpec] = {}
        self.types: dict[str, str] = {}
        # Inside `with pytest.raises(...)` a proven unit mismatch is the
        # *expected* behavior, not a finding.
        self.expect_error = 0
        self.locals_ = self._local_names(fn)
        self.own_contract = (
            table.lookup(f"{module}.{qualname}") if module else None
        )
        if own_class is not None and table.lookup_class(own_class) is not None:
            self.types["self"] = own_class
        self._seed_env()

    # ------------------------------------------------------------ plumbing
    @staticmethod
    def _local_names(fn: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in (
                    list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)
                ):
                    names.add(arg.arg)
                if args.vararg:
                    names.add(args.vararg.arg)
                if args.kwarg:
                    names.add(args.kwarg.arg)
                if node is not fn:
                    names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name != "*":
                        names.add(alias.asname or alias.name.split(".", 1)[0])
        return names

    def _annotation_type(self, ann: ast.expr | None) -> str | None:
        """Resolve a parameter/variable annotation to a dotted class."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            text = ann.value.strip()
            if text.isidentifier():
                ann = ast.Name(id=text, ctx=ast.Load())
            else:
                return None
        if isinstance(ann, (ast.Name, ast.Attribute)):
            return dotted_target(
                ann, self.aliases, self.module, self.module_symbols
            )
        return None

    def _seed_env(self) -> None:
        params = (
            self.own_contract.param_units() if self.own_contract else {}
        )
        args = self.fn.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if arg.arg in params:
                self.env[arg.arg] = params[arg.arg]
            cls = self._annotation_type(arg.annotation)
            if cls is not None and self.table.lookup_class(cls) is not None:
                self.types[arg.arg] = cls

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        if rule != "SW304" and self.expect_error > 0:
            return
        self.findings.append(
            Finding(
                rule,
                self.path,
                getattr(node, "lineno", self.fn.lineno),
                getattr(node, "col_offset", 0),
                message,
            )
        )

    def resolve(self, func: ast.expr) -> str | None:
        return dotted_target(
            func, self.aliases, self.module, self.module_symbols, self.locals_
        )

    def _report_mismatch(
        self, rule: str, node: ast.AST, verb: str, a: UnitSpec, b: UnitSpec
    ) -> None:
        detail = ""
        if rule == "SW303":
            ratio = scale_ratio(a, b)
            detail = (
                f" (scales differ by {ratio}; convert explicitly)"
                if ratio is not None
                else ""
            )
        elif rule == "SW302":
            detail = " (convert at the sim/wall boundary, not implicitly)"
        self.report(
            rule,
            node,
            f"`{self.qualname}` {verb} `{format_unit(a)}` and "
            f"`{format_unit(b)}`: incompatible units{detail}",
        )

    # ----------------------------------------------------------- statements
    def run(self) -> list[Finding]:
        self.exec_body(self.fn.body)
        return self.findings

    def exec_body(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def _assign_target(
        self, target: ast.expr, val: UnitSpec | None, value_node: ast.expr
    ) -> None:
        if isinstance(target, ast.Name):
            if val is None:
                self.env.pop(target.id, None)
            else:
                self.env[target.id] = val
            cls = self._constructed_class(value_node)
            if cls is not None:
                self.types[target.id] = cls
            elif target.id in self.types and val is not None:
                del self.types[target.id]
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, None, value_node)
        elif isinstance(target, ast.Attribute):
            # A store into a unit-declared field is checked like a call
            # site: the declaration is the contract.
            declared = self._attribute_unit(target)
            if declared is not None and val is not None:
                rule = classify_mismatch(val, declared)
                if rule is not None:
                    self.report(
                        "SW301",
                        value_node,
                        f"`{self.qualname}` stores `{format_unit(val)}` into "
                        f"a field declared `{format_unit(declared)}`",
                    )

    def _constructed_class(self, value_node: ast.expr) -> str | None:
        if not isinstance(value_node, ast.Call):
            return None
        resolved = self.resolve(value_node.func)
        if resolved is None:
            return None
        resolved = self.table.resolve(resolved)
        if self.table.lookup_class(resolved) is not None:
            return resolved
        return None

    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            val = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, val, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            cls = self._annotation_type(stmt.annotation)
            if (
                isinstance(stmt.target, ast.Name)
                and cls is not None
                and self.table.lookup_class(cls) is not None
            ):
                self.types[stmt.target.id] = cls
            if stmt.value is not None:
                self._assign_target(
                    stmt.target, self.eval(stmt.value), stmt.value
                )
        elif isinstance(stmt, ast.AugAssign):
            val = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                left = self.env.get(stmt.target.id)
                result = self._binop_units(left, val, stmt.op, stmt)
                self._assign_target(stmt.target, result, stmt.value)
            elif isinstance(stmt.target, ast.Attribute):
                left = self._attribute_unit(stmt.target)
                self._binop_units(left, val, stmt.op, stmt)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Iterating a sequence of unit-u values yields unit-u elements.
            val = self.eval(stmt.iter)
            self._assign_target(stmt.target, val, stmt.iter)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self.exec_body(stmt.body)
            self.exec_body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            expects = any(
                isinstance(item.context_expr, ast.Call)
                and self.resolve(item.context_expr.func) == "pytest.raises"
                for item in stmt.items
            )
            self.expect_error += 1 if expects else 0
            self.exec_body(stmt.body)
            self.expect_error -= 1 if expects else 0
        elif isinstance(stmt, ast.Try):
            self.exec_body(stmt.body)
            for handler in stmt.handlers:
                self.exec_body(handler.body)
            self.exec_body(stmt.orelse)
            self.exec_body(stmt.finalbody)
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        # Nested defs/classes are analyzed as their own scopes elsewhere.

    def _check_return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            return
        val = self.eval(stmt.value)
        if self.own_contract is None or val is None:
            return
        declared = self.own_contract.ret_unit()
        if declared is None:
            return
        rule = classify_mismatch(val, declared)
        if rule is not None:
            self.report(
                "SW301",
                stmt,
                f"`{self.qualname}` returns `{format_unit(val)}` but "
                f"declares ret unit `{self.own_contract.ret}`",
            )

    # ---------------------------------------------------------- expressions
    def eval(self, node: ast.expr) -> UnitSpec | None:
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id not in self.locals_ and node.id in self.aliases:
                dotted = self.table.resolve(self.aliases[node.id])
                return _CONSTANT_UNITS.get(dotted)
            return None
        if isinstance(node, ast.Constant):
            return None  # literals are polymorphic (SW304 is syntactic)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.Not):
                self.eval(node.operand)
                return None
            return self.eval(node.operand)
        if isinstance(node, ast.Compare):
            self._compare(node)
            return None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self.eval(value)
            return None
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            self.eval(node.slice)
            return self.eval(node.value)  # elements keep the array's unit
        if isinstance(node, ast.Attribute):
            return self._attribute_unit(node)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            a = self.eval(node.body)
            b = self.eval(node.orelse)
            if a is not None and b is not None:
                rule = classify_mismatch(a, b)
                if rule is not None:
                    self._report_mismatch(
                        rule, node, "selects between", a, b
                    )
                    return None
                return a
            return a if a is not None else b
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            vals = [self.eval(e) for e in node.elts]
            known = [v for v in vals if v is not None]
            if known and all(v == known[0] for v in known):
                return known[0]
            return None
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.eval(value.value)
            return None
        return None

    def _attribute_unit(self, node: ast.Attribute) -> UnitSpec | None:
        resolved = self.resolve(node)
        if resolved is not None:
            spec = _CONSTANT_UNITS.get(self.table.resolve(resolved))
            if spec is not None:
                return spec
        if isinstance(node.value, ast.Name):
            cls = self.types.get(node.value.id)
            if cls is not None:
                return self.table.field_unit(cls, node.attr)
        return None

    # ----------------------------------------------------------- operators
    def _binop(self, node: ast.BinOp) -> UnitSpec | None:
        left = self.eval(node.left)
        right = self.eval(node.right)
        return self._binop_units(left, right, node.op, node)

    def _binop_units(
        self,
        left: UnitSpec | None,
        right: UnitSpec | None,
        op: ast.operator,
        node: ast.AST,
    ) -> UnitSpec | None:
        left_node = getattr(node, "left", None)
        right_node = getattr(node, "right", None) or getattr(
            node, "value", None
        )
        if isinstance(op, ast.Mult):
            if left is not None and right is not None:
                return unit_mul(left, right)
            return self._scaled_by_literal(
                node, left, right, left_node, right_node, invert=False
            )
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if left is not None and right is not None:
                return unit_div(left, right)
            return self._scaled_by_literal(
                node, left, right, left_node, right_node, invert=True
            )
        if isinstance(op, ast.Pow):
            exp = (
                _literal_value(right_node)
                if right_node is not None
                else None
            )
            if left is not None and exp is not None:
                return unit_pow(
                    left, Fraction(exp).limit_denominator(1000)
                )
            return None
        if isinstance(op, (ast.Add, ast.Sub, ast.Mod)):
            if left is not None and right is not None:
                rule = classify_mismatch(left, right)
                if rule is not None:
                    self._report_mismatch(
                        rule,
                        node,
                        _OP_WORDS.get(type(op), "combines"),
                        left,
                        right,
                    )
                    return None
            # Unknown + known: assume the unknown side is consistent.
            return left if left is not None else right
        return None

    def _scaled_by_literal(
        self,
        node: ast.AST,
        left: UnitSpec | None,
        right: UnitSpec | None,
        left_node: ast.expr | None,
        right_node: ast.expr | None,
        *,
        invert: bool,
    ) -> UnitSpec | None:
        """``known * literal`` / ``known / literal`` (and mirrored).

        A plain literal is a dimensionless count, so the unit passes
        through — unless it is a known conversion factor applied to a
        convertible dimension, which is SW304 (and the result becomes
        unknown: the intended target unit is not expressed in code).
        """
        known, known_is_left = (left, True) if left is not None else (
            right, False
        )
        if known is None:
            return None
        literal_node = right_node if known_is_left else left_node
        lit = (
            _literal_value(literal_node) if literal_node is not None else None
        )
        if lit is None:
            return None  # a non-literal unknown operand may carry units
        hint = _CONVERSION_LITERALS.get(abs(lit))
        if hint == "MS_PER_SECOND" and "request" in known.dimensions():
            hint = "REQUESTS_PER_KREQ"  # 1000 on a req count, not ms<->s
        if hint is not None and (
            set(known.dimensions()) & _CONVERTIBLE_DIMS
        ):
            shown = int(lit) if float(lit).is_integer() else lit
            self.report(
                "SW304",
                node,
                f"bare literal {shown} rescales a `{format_unit(known)}` "
                f"value in `{self.qualname}`; name the conversion with "
                f"repro.units.{hint}",
            )
            return None
        if not known_is_left and invert:
            return unit_pow(known, Fraction(-1))  # literal / known
        return known

    def _compare(self, node: ast.Compare) -> None:
        vals = [self.eval(node.left)] + [
            self.eval(c) for c in node.comparators
        ]
        prev: UnitSpec | None = None
        for val in vals:
            if val is None:
                continue
            if prev is not None:
                rule = classify_mismatch(prev, val)
                if rule is not None:
                    self._report_mismatch(rule, node, "compares", prev, val)
                    return
            prev = val

    # ----------------------------------------------------------------- calls
    def _call(self, node: ast.Call) -> UnitSpec | None:
        func = node.func
        resolved = self.resolve(func)
        if resolved is not None:
            if resolved in _WALL_CLOCK_CALLS:
                return _WALL_SECONDS
            if resolved.startswith("numpy."):
                return self._numpy_call(resolved[len("numpy."):], node)
            helper_unit = _TAGGED_HELPERS.get(self.table.resolve(resolved))
            if helper_unit is not None:
                for arg in node.args:
                    self.eval(arg)
                return parse_unit(helper_unit)
            contract = self.table.lookup(resolved)
            if contract is not None:
                return self._contract_call(contract, node)
            for arg in node.args:
                self.eval(arg)
            for kw in node.keywords:
                self.eval(kw.value)
            return None
        if isinstance(func, ast.Name) and func.id not in self.locals_:
            return self._builtin_call(func.id, node)
        if isinstance(func, ast.Attribute):
            base = self.eval(func.value)
            for arg in node.args:
                self.eval(arg)
            if base is not None and func.attr in _UNIT_PRESERVING_METHODS:
                return base
            return None
        for arg in node.args:
            self.eval(arg)
        return None

    def _builtin_call(self, name: str, node: ast.Call) -> UnitSpec | None:
        vals = [self.eval(arg) for arg in node.args]
        for kw in node.keywords:
            self.eval(kw.value)
        if name in ("float", "abs", "sum", "round") and len(vals) == 1:
            return vals[0]
        if name in ("min", "max"):
            if len(vals) == 1:
                return vals[0]
            known = [v for v in vals if v is not None]
            for a, b in zip(known, known[1:]):
                rule = classify_mismatch(a, b)
                if rule is not None:
                    self._report_mismatch(rule, node, f"{name}()s", a, b)
                    return None
            return known[0] if known else None
        return None

    def _numpy_call(self, name: str, node: ast.Call) -> UnitSpec | None:
        vals = [self.eval(arg) for arg in node.args]
        for kw in node.keywords:
            self.eval(kw.value)
        if not vals:
            return None
        if name in _UNIT_PRESERVING_NUMPY:
            return vals[0]
        if name in _ADDITIVE_NUMPY and len(vals) >= 2:
            a, b = vals[0], vals[1]
            if a is not None and b is not None:
                rule = classify_mismatch(a, b)
                if rule is not None:
                    self._report_mismatch(
                        rule, node, f"np.{name}()s", a, b
                    )
                    return None
            return a if a is not None else b
        if name in ("multiply", "dot"):
            if vals[0] is not None and len(vals) >= 2 and vals[1] is not None:
                return unit_mul(vals[0], vals[1])
            return None
        if name in ("divide", "true_divide") and len(vals) >= 2:
            if vals[0] is not None and vals[1] is not None:
                return unit_div(vals[0], vals[1])
            return None
        if name == "sqrt" and vals[0] is not None:
            return unit_pow(vals[0], Fraction(1, 2))
        if name == "square" and vals[0] is not None:
            return unit_pow(vals[0], Fraction(2))
        if name == "where" and len(vals) == 3:
            a, b = vals[1], vals[2]
            if a is not None and b is not None:
                rule = classify_mismatch(a, b)
                if rule is not None:
                    self._report_mismatch(rule, node, "selects between", a, b)
                    return None
            return a if a is not None else b
        if name == "interp" and len(vals) >= 3:
            return vals[2]
        return None

    # -------------------------------------------------- contract call sites
    def _contract_call(
        self, contract: UnitContract, node: ast.Call
    ) -> UnitSpec | None:
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            kw.arg is None for kw in node.keywords
        ):
            return None  # *args/**kwargs call: mapping is not static
        param_units = contract.param_units()
        arg_map: list[tuple[str, ast.expr]] = []
        for i, arg in enumerate(node.args):
            if i < len(contract.args):
                arg_map.append((contract.args[i], arg))
        for kw in node.keywords:
            arg_map.append((kw.arg, kw.value))
        for pname, arg in arg_map:
            val = self.eval(arg)
            if pname not in param_units or val is None:
                continue
            declared = param_units[pname]
            rule = classify_mismatch(val, declared)
            if rule is not None:
                spec_text = dict(contract.params)[pname]
                self.report(
                    "SW301",
                    arg,
                    f"call to `{contract.qualname}` passes `{pname}` as "
                    f"`{format_unit(val)}`, but its contract declares "
                    f"`{spec_text}`",
                )
                return None
        return contract.ret_unit()


# --------------------------------------------------------------------------
# Module + project analysis
# --------------------------------------------------------------------------


def _is_suppressed(
    finding: Finding, file_rules: set[str], line_rules: dict[int, set[str]]
) -> bool:
    if "ALL" in file_rules or finding.rule in file_rules:
        return True
    on_line = line_rules.get(finding.line, set())
    return "ALL" in on_line or finding.rule in on_line


def analyze_module(
    source: str,
    path: Path,
    table: UnitTable,
    *,
    module: str | None = None,
) -> list[Finding]:
    """All spotunits findings for one module, suppressions applied."""
    if module is None:
        module = module_name_for(path)
    str_path = str(path)
    try:
        tree = ast.parse(source, filename=str_path)
    except SyntaxError as exc:
        return [
            Finding(
                "SW000", str_path, exc.lineno or 1, 0,
                f"syntax error: {exc.msg}",
            )
        ]

    file_rules, line_rules, refs = scan_suppressions(source, tool="spotunits")
    is_pkg = path.name == "__init__.py"
    aliases, _exports = collect_aliases(tree, module, is_pkg)
    module_symbols = {
        stmt.name
        for stmt in tree.body
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    }

    findings: list[Finding] = []
    known = set(UNIT_RULES) | set(ENGINE_RULES) | {"ALL"}
    for line, rule_id in refs:
        if rule_id not in known:
            findings.append(
                Finding(
                    "SW009", str_path, line, 0,
                    f"suppression references unknown rule id `{rule_id}` "
                    f"(see --list-rules); it suppresses nothing",
                )
            )

    def analyze_fn(fn, qualname: str, own_class: str | None) -> None:
        analyzer = _FunctionUnitAnalyzer(
            fn,
            qualname,
            path=str_path,
            module=module,
            aliases=aliases,
            module_symbols=module_symbols,
            table=table,
            own_class=own_class,
        )
        findings.extend(analyzer.run())

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            analyze_fn(stmt, stmt.name, None)
        elif isinstance(stmt, ast.ClassDef):
            own_class = f"{module}.{stmt.name}" if module else None
            for inner in stmt.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    analyze_fn(inner, f"{stmt.name}.{inner.name}", own_class)

    return [
        f for f in findings if not _is_suppressed(f, file_rules, line_rules)
    ]


# --------------------------------------------------------------------------
# Two-pass cached pipeline (the spotshape driver, bound to units facts)
# --------------------------------------------------------------------------


def _load_cache(cache_path: Path | None) -> dict:
    if cache_path is None or not cache_path.exists():
        return {}
    try:
        data = json.loads(cache_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return {}
    if data.get("schema") != CACHE_SCHEMA or data.get("version") != ANALYSIS_VERSION:
        return {}
    files = data.get("files")
    return files if isinstance(files, dict) else {}


def _save_cache(cache_path: Path | None, files: dict) -> None:
    if cache_path is None:
        return
    payload = {
        "schema": CACHE_SCHEMA,
        "version": ANALYSIS_VERSION,
        "files": files,
    }
    try:
        cache_path.write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8"
        )
    except OSError:
        # A read-only checkout (CI artifact stage) must not fail the run.
        return


def analyze_paths(
    paths: Iterable[Path | str],
    *,
    exclude: Iterable[Path | str] = (),
    cache_path: Path | str | None = None,
    stats: dict | None = None,
) -> list[Finding]:
    """Run both passes over every ``.py`` file under ``paths``, cached.

    Pass A (unit declarations) is cached per file by ``(mtime, sha256)``;
    pass B (the interpreter) is cached by the same file key **plus** the
    digest of the whole project's unit facts, so editing a contract in
    one file correctly re-analyzes every file that might call it.
    ``stats`` (when given) receives ``cached``/``analyzed`` counters for
    pass B.
    """
    cache_file = Path(cache_path) if cache_path is not None else None
    cached_files = _load_cache(cache_file)
    next_files: dict = {}

    entries: list[tuple[Path, str | None, str | None]] = []
    modules: list[UnitModuleSummaries] = []
    findings: list[Finding] = []

    for path in iter_python_files(paths, exclude=exclude):
        key = str(path.resolve())
        try:
            mtime = path.stat().st_mtime_ns
        except OSError:
            mtime = -1
        cached = cached_files.get(key)
        source: str | None = None
        digest: str | None = None
        if cached is not None and cached.get("mtime") != mtime:
            # mtime changed: fall back to content hash before re-extracting.
            try:
                source = path.read_text(encoding="utf-8")
                digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
            except (OSError, UnicodeDecodeError):
                source = None
            if digest is not None and cached.get("sha256") == digest:
                cached = dict(cached, mtime=mtime)
            else:
                cached = None
        if cached is not None:
            summaries = UnitModuleSummaries.from_dict(cached["summaries"])
            next_files[key] = dict(cached)
            modules.append(summaries)
            entries.append((path, key, source))
            continue
        if source is None:
            try:
                source = path.read_text(encoding="utf-8")
                digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
            except (OSError, UnicodeDecodeError) as exc:
                findings.append(
                    Finding("SW000", str(path), 1, 0, f"unreadable file: {exc}")
                )
                entries.append((path, None, None))
                continue
        summaries = extract_unit_summaries(source, path)
        modules.append(summaries)
        next_files[key] = {
            "mtime": mtime,
            "sha256": digest,
            "summaries": summaries.to_dict(),
        }
        entries.append((path, key, source))

    table = UnitTable(modules)
    digest_all = unit_summary_digest(table)
    n_cached = n_analyzed = 0

    for path, key, source in entries:
        if key is None:
            continue  # unreadable: SW000 already recorded
        entry = next_files[key]
        analysis = entry.get("analysis")
        if analysis is not None and analysis.get("digest") == digest_all:
            findings.extend(
                Finding(rule, p, line, col, msg)
                for rule, p, line, col, msg in analysis["findings"]
            )
            n_cached += 1
            continue
        if source is None:
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                findings.append(
                    Finding("SW000", str(path), 1, 0, f"unreadable file: {exc}")
                )
                continue
        file_findings = analyze_module(source, path, table)
        findings.extend(file_findings)
        entry["analysis"] = {
            "digest": digest_all,
            "findings": [
                [f.rule, f.path, f.line, f.col, f.message]
                for f in file_findings
            ],
        }
        n_analyzed += 1

    _save_cache(cache_file, next_files)
    if stats is not None:
        stats["cached"] = n_cached
        stats["analyzed"] = n_analyzed
    return findings
