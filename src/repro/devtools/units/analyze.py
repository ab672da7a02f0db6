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
  ``@units`` contract, a store violates a ``@field_units`` field, or a
  ``@field_units`` name is never defined by its class or a visible base.
- ``SW302`` — simulated and wall-clock time mixed in one expression:
  the dimensions agree only if ``wall_time`` were ``sim_time``.
- ``SW303`` — the same dimension combined at different scales
  (``s`` + ``hr``, or a per-interval quantity added to plain time)
  without an explicit conversion.
- ``SW304`` — a bare numeric literal (``3600``, ``1000``, ...) used to
  rescale a value that provably carries a time/request unit; the fix is
  the named constant in :mod:`repro.units`.

Parsing, suppression comments and the ``SW000``/``SW009`` engine rules
belong to the driver, :mod:`repro.devtools.check`.
"""

from __future__ import annotations

import ast
from fractions import Fraction

from repro.devtools.interp import FunctionInterpreter
from repro.devtools.rules import Finding, ModuleContext
from repro.devtools.specs import UnitSpec, format_unit, parse_unit
from repro.devtools.summaries import (
    Contract,
    ContractTable,
    ModuleContracts,
    extract_contracts,
)
from repro.devtools.units.domain import (
    classify_mismatch,
    scale_ratio,
    unit_div,
    unit_mul,
    unit_pow,
)
from repro.units import UNIT_OF

__all__ = [
    "UNIT_RULES",
    "analyze_module",
    "summarize",
]

UNIT_RULES = {
    "SW300": "additive operation combines incompatible dimensions",
    "SW301": "call site or return violates a declared @units contract",
    "SW302": "simulated and wall-clock time mixed in one expression",
    "SW303": "same dimension combined at different scales, unconverted",
    "SW304": "bare numeric literal used as a unit-conversion factor",
}


#: dotted spellings that count as the ``@units`` decorator.  The bare
#: ``repro.devtools.units`` name is this analyzer package, so the
#: decorator is only importable from ``repro.devtools.contracts``.
_UNITS_DECORATORS = frozenset({"repro.devtools.contracts.units"})
_FIELD_UNITS_DECORATORS = frozenset(
    {"repro.devtools.contracts.field_units", "repro.devtools.field_units"}
)

_WALL_SECONDS = parse_unit("wall_s")

#: zero-argument stdlib calls that return wall-clock seconds.
_WALL_CLOCK_CALLS = frozenset(
    {"time.time", "time.perf_counter", "time.monotonic"}
)

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


class _UnitInterpreter(FunctionInterpreter):
    """The units domain: dimension vectors and their transfer functions."""

    EXPECTED_RULES = frozenset({"SW300", "SW301", "SW302", "SW303"})

    def __init__(self, *args) -> None:
        super().__init__(*args)
        #: name -> dotted class with a ``@field_units`` table
        self.types: dict[str, str] = {}
        own_class = (
            f"{self.module}.{self.class_name}"
            if self.module and self.class_name
            else None
        )
        if own_class is not None and self.table.lookup_class(own_class) is not None:
            self.types["self"] = own_class
        params = {}
        if self.own_contract is not None:
            params = {n: parse_unit(s) for n, s in self.own_contract.params}
        args = self.fn.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if arg.arg in params:
                self.env[arg.arg] = params[arg.arg]
            cls = self._annotation_type(arg.annotation)
            if cls is not None and self.table.lookup_class(cls) is not None:
                self.types[arg.arg] = cls

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
            return self.names.resolve(ann)
        return None

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

    def _combine(
        self, node: ast.AST, verb: str, a: UnitSpec | None, b: UnitSpec | None
    ) -> UnitSpec | None:
        """Two values meeting additively: their unit, or ``None`` once a
        mismatch is reported.  An unknown side is assumed consistent."""
        if a is not None and b is not None:
            rule = classify_mismatch(a, b)
            if rule is not None:
                self._report_mismatch(rule, node, verb, a, b)
                return None
        return a if a is not None else b

    # ----------------------------------------------------------- statements
    def exec_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            cls = self._annotation_type(stmt.annotation)
            if cls is not None and self.table.lookup_class(cls) is not None:
                self.types[stmt.target.id] = cls
        super().exec_stmt(stmt)

    def assign(
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
                self.assign(elt, None, value_node)
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

    def loop_element(self, stmt: ast.For | ast.AsyncFor, val) -> UnitSpec | None:
        # Iterating a sequence of unit-u values yields unit-u elements.
        return val

    def check_return(self, stmt: ast.Return, val: UnitSpec) -> None:
        declared = parse_unit(self.own_contract.ret)
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
            aliases = self.names.imports.aliases
            if node.id not in self.locals_ and node.id in aliases:
                dotted = self.table.resolve(aliases[node.id])
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
            return self.eval_call(node)
        if isinstance(node, ast.Subscript):
            self.eval(node.slice)
            return self.eval(node.value)  # elements keep the array's unit
        if isinstance(node, ast.Attribute):
            return self._attribute_unit(node)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            a = self.eval(node.body)
            return self._combine(node, "selects between", a, self.eval(node.orelse))
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
            table = self.table.lookup_class(self.types.get(node.value.id))
            spec = dict(table.fields).get(node.attr) if table else None
            if spec is not None:
                return parse_unit(spec)
        return None

    # ----------------------------------------------------------- operators
    def _binop(self, node: ast.BinOp) -> UnitSpec | None:
        left = self.eval(node.left)
        right = self.eval(node.right)
        return self.binop(left, right, node.op, node)

    def binop(
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
            verb = _OP_WORDS.get(type(op), "combines")
            return self._combine(node, verb, left, right)
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
    def external_call(self, resolved: str, node: ast.Call) -> UnitSpec | None:
        if resolved in _WALL_CLOCK_CALLS:
            return _WALL_SECONDS
        return super().external_call(resolved, node)

    def method_call(self, func: ast.Attribute, node: ast.Call) -> UnitSpec | None:
        base = self.eval(func.value)
        for arg in node.args:
            self.eval(arg)
        if base is not None and func.attr in _UNIT_PRESERVING_METHODS:
            return base
        return None

    def builtin_call(self, name: str, node: ast.Call) -> UnitSpec | None:
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

    def numpy_call(self, name: str, node: ast.Call) -> UnitSpec | None:
        vals = [self.eval(arg) for arg in node.args]
        for kw in node.keywords:
            self.eval(kw.value)
        if not vals:
            return None
        if name in _UNIT_PRESERVING_NUMPY:
            return vals[0]
        if name in _ADDITIVE_NUMPY and len(vals) >= 2:
            return self._combine(node, f"np.{name}()s", vals[0], vals[1])
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
            return self._combine(node, "selects between", vals[1], vals[2])
        if name == "interp" and len(vals) >= 3:
            return vals[2]
        return None

    # -------------------------------------------------- contract call sites
    def contract_call(self, contract: Contract, node: ast.Call) -> UnitSpec | None:
        bound = self.bind_arguments(contract, node)
        if bound is None:
            return None
        param_units = {n: parse_unit(s) for n, s in contract.params}
        for pname, arg in bound:
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
        return parse_unit(contract.ret) if contract.ret is not None else None


# --------------------------------------------------------------------------
# Module + project analysis
# --------------------------------------------------------------------------


def summarize(ctx: ModuleContext) -> ModuleContracts:
    """Pass A for one parsed module: its ``@units`` contracts and
    ``@field_units`` tables."""
    return extract_contracts(
        ctx, _UNITS_DECORATORS, parse_unit, _FIELD_UNITS_DECORATORS
    )


def _undefined_fields(ctx: ModuleContext, table: ContractTable) -> list[Finding]:
    """SW301 for each ``@field_units`` name its class never defines: not in
    a method, not at class level, not in a base the table can see."""
    findings: list[Finding] = []
    for cls in ctx.tree.body:
        if not isinstance(cls, ast.ClassDef) or ctx.module is None:
            continue
        dotted = f"{ctx.module}.{cls.name}"
        defined = table.defined_names(dotted)
        if table.lookup_class(dotted) is None or defined is None:
            continue
        for deco in cls.decorator_list:
            if not (
                isinstance(deco, ast.Call)
                and ctx.names.resolve(deco.func) in _FIELD_UNITS_DECORATORS
            ):
                continue
            findings.extend(
                Finding(
                    "SW301", str(ctx.path), kw.lineno, kw.col_offset,
                    f"`@field_units` gives `{kw.arg}` a unit, but `{cls.name}` "
                    "never defines it",
                )
                for kw in deco.keywords
                if kw.arg is not None and kw.arg not in defined
            )
    return findings


def analyze_module(ctx: ModuleContext, table: ContractTable) -> list[Finding]:
    """Pass B for one parsed module: every function against the table, and
    every ``@field_units`` name against its class."""
    return _UnitInterpreter.check_module(ctx, table) + _undefined_fields(ctx, table)
