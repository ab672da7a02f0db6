"""Domain-specific static-analysis rules for the SpotWeb reproduction.

Each rule encodes an invariant the Python type system cannot express but
the system's correctness rests on: reproducibility demands seeded
``np.random.Generator`` threading (no global RNG), the discrete-event
simulator owns time (no wall-clock reads inside ``repro.simulator`` /
``repro.core``), portfolio math must not compare floats with ``==``, and
"frozen" snapshots must actually be immutable down to their arrays.

Rules are pure functions over a parsed module (:class:`ModuleContext`)
yielding :class:`Finding` records.  The driver in
:mod:`repro.devtools.check` handles file walking, suppression comments and
reporting.

Rule inventory
--------------
- ``SW001`` — global-state RNG call (``np.random.*`` / ``random.*``).
- ``SW002`` — wall-clock read inside a DES-owned module.
- ``SW003`` — float ``==`` / ``!=`` comparison.
- ``SW004`` — frozen dataclass with a writable ``ndarray`` field.
- ``SW005`` — mutable default argument.
- ``SW006`` — bare ``except`` or ``except Exception``.
- ``SW007`` — missing, incomplete, or stale ``__all__``.
- ``SW008`` — ``assert`` in library code (stripped under ``python -O``).
- ``SW011`` — builtin-type ``dtype=`` argument (``float``/``int``/``bool``)
  on a NumPy call; spell the width explicitly (``np.float64``/``np.int64``/
  ``np.bool_``) — bare ``int`` is platform-dependent (int32 on Windows).
- ``SW012`` — clock read (``time.time`` / ``time.perf_counter`` /
  ``time.monotonic`` and their ``_ns`` variants) stored into a name
  without a unit suffix (``_s``/``_ms``, or ``_ns`` for the ``_ns``
  readers).  Naming-level clock-domain hygiene: the suffix is what lets
  humans — and ``spotunits``'s SW302 wall/sim-time rule — tell a
  wall-clock timestamp from a simulated one.

SW003, SW007 and SW008 skip pytest modules (``test_*.py``,
``conftest.py``): bitwise-equality assertions are the point of many
tests, and ``assert`` plus an implicit API are pytest idiom.

(``SW009`` is an engine rule — unknown suppression ids — and ``SW010`` is
reserved; the SW2xx range belongs to ``spotshape`` and SW3xx to
``spotunits``.)
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.devtools.names import ModuleNames

__all__ = [
    "Finding",
    "ModuleContext",
    "Rule",
    "RULES",
    "module_name_for",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class ModuleContext:
    """A parsed module plus everything rules need to know about it."""

    path: Path
    module: str | None  # dotted module name, e.g. "repro.simulator.des"
    tree: ast.Module
    # source line -> the ``# spotlint: <word>`` annotations on it
    annotations: Mapping[int, frozenset[str]] = field(default_factory=dict)

    @property
    def is_package_init(self) -> bool:
        return self.path.name == "__init__.py"

    @property
    def is_entry_script(self) -> bool:
        return self.path.name == "__main__.py"

    @property
    def is_test_module(self) -> bool:
        name = self.path.name
        return name == "conftest.py" or (
            name.startswith("test_") and name.endswith(".py")
        )

    @cached_property
    def names(self) -> ModuleNames:
        """The module's name resolution, shared by every analyzer."""
        return ModuleNames(self.tree, self.module, self.is_package_init)


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    id: str
    summary: str
    check: Callable[[ModuleContext], Iterator[Finding]]


# --------------------------------------------------------------------------
# Module names
# --------------------------------------------------------------------------


def module_name_for(path: Path) -> str | None:
    """Derive the dotted module name from the package layout on disk."""
    path = path.resolve()
    parts = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else None


# --------------------------------------------------------------------------
# SW001 — global-state RNG
# --------------------------------------------------------------------------

_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "MT19937",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
}
_STDLIB_RANDOM_ALLOWED = {"Random", "SystemRandom"}


def _check_global_rng(ctx: ModuleContext) -> Iterator[Finding]:
    for node, resolved in ctx.names.calls.items():
        if resolved.startswith("numpy.random."):
            leaf = resolved.rsplit(".", 1)[1]
            if leaf not in _NP_RANDOM_ALLOWED:
                yield Finding(
                    "SW001",
                    str(ctx.path),
                    node.lineno,
                    node.col_offset,
                    f"global-state RNG call `{resolved}`; thread a seeded "
                    "`np.random.Generator` (np.random.default_rng) instead",
                )
        elif resolved.startswith("random."):
            leaf = resolved.split(".", 2)[1]
            if leaf not in _STDLIB_RANDOM_ALLOWED:
                yield Finding(
                    "SW001",
                    str(ctx.path),
                    node.lineno,
                    node.col_offset,
                    f"global-state RNG call `{resolved}`; use a seeded "
                    "`random.Random` instance or np.random.default_rng",
                )


# --------------------------------------------------------------------------
# SW002 — wall-clock reads in DES-owned modules
# --------------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.asctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}
_DES_OWNED_PREFIXES = ("repro.simulator", "repro.core")


def _in_des_scope(module: str | None) -> bool:
    if module is None:
        return False
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _DES_OWNED_PREFIXES
    )


def _check_wall_clock(ctx: ModuleContext) -> Iterator[Finding]:
    if not _in_des_scope(ctx.module):
        return
    for node, resolved in ctx.names.calls.items():
        if resolved in _WALL_CLOCK:
            yield Finding(
                "SW002",
                str(ctx.path),
                node.lineno,
                node.col_offset,
                f"wall-clock call `{resolved}` inside `{ctx.module}`; the "
                "discrete-event simulator owns time — use the simulated clock",
            )


# --------------------------------------------------------------------------
# SW003 — float equality
# --------------------------------------------------------------------------


def _is_floatish(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_floatish(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    return False


def _check_float_eq(ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.is_test_module:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for i, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[i], operands[i + 1]
            if _is_floatish(left) or _is_floatish(right):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield Finding(
                    "SW003",
                    str(ctx.path),
                    node.lineno,
                    node.col_offset,
                    f"float `{symbol}` comparison; use math.isclose / "
                    "np.isclose or compare against an explicit tolerance",
                )


# --------------------------------------------------------------------------
# SW004 — frozen dataclasses with writable ndarray fields
# --------------------------------------------------------------------------


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        name = (
            dec.func.attr
            if isinstance(dec.func, ast.Attribute)
            else getattr(dec.func, "id", "")
        )
        if name != "dataclass":
            continue
        for kw in dec.keywords:
            if (
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
            ):
                return True
    return False


def _ndarray_fields(node: ast.ClassDef) -> list[tuple[str, int, int]]:
    fields = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(
            stmt.target, ast.Name
        ):
            continue
        annotation = ast.unparse(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        if "ndarray" in annotation or "NDArray" in annotation:
            fields.append((stmt.target.id, stmt.lineno, stmt.col_offset))
    return fields


def _readonly_fields(post_init: ast.FunctionDef) -> set[str]:
    """Field names made read-only inside ``__post_init__``.

    Recognizes both the direct idiom ``self.x.setflags(write=False)`` and
    the helper ``freeze_arrays(self, "x", "y")`` from
    :mod:`repro.devtools.contracts`.
    """
    frozen: set[str] = set()
    for node in ast.walk(post_init):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "setflags":
            write_false = any(
                kw.arg == "write"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in node.keywords
            )
            owner = func.value
            if (
                write_false
                and isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "self"
            ):
                frozen.add(owner.attr)
        else:
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else getattr(func, "id", "")
            )
            if name == "freeze_arrays":
                for arg in node.args[1:]:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        frozen.add(arg.value)
    return frozen


def _check_frozen_arrays(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef) or not _is_frozen_dataclass(node):
            continue
        fields = _ndarray_fields(node)
        if not fields:
            continue
        post_init = next(
            (
                stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
                and stmt.name == "__post_init__"
            ),
            None,
        )
        readonly = _readonly_fields(post_init) if post_init else set()
        for name, line, col in fields:
            if name not in readonly:
                yield Finding(
                    "SW004",
                    str(ctx.path),
                    line,
                    col,
                    f"frozen dataclass `{node.name}` has writable ndarray "
                    f"field `{name}`; make it read-only in __post_init__ "
                    "(freeze_arrays / setflags(write=False))",
                )


# --------------------------------------------------------------------------
# SW005 — mutable default arguments
# --------------------------------------------------------------------------

_MUTABLE_FACTORIES = {"dict", "list", "set", "bytearray", "defaultdict", "deque"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else getattr(node.func, "id", "")
        )
        return name in _MUTABLE_FACTORIES
    return False


def _check_mutable_defaults(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                label = getattr(node, "name", "<lambda>")
                yield Finding(
                    "SW005",
                    str(ctx.path),
                    default.lineno,
                    default.col_offset,
                    f"mutable default argument in `{label}`; default to None "
                    "and construct inside the body",
                )


# --------------------------------------------------------------------------
# SW006 — broad exception handlers
# --------------------------------------------------------------------------


def _broad_exception_names(node: ast.expr) -> list[str]:
    if isinstance(node, ast.Name) and node.id in ("Exception", "BaseException"):
        return [node.id]
    if isinstance(node, ast.Tuple):
        names = []
        for elt in node.elts:
            names.extend(_broad_exception_names(elt))
        return names
    return []


def _check_broad_except(ctx: ModuleContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield Finding(
                "SW006",
                str(ctx.path),
                node.lineno,
                node.col_offset,
                "bare `except:`; catch the specific exceptions this block "
                "actually guards",
            )
            continue
        for name in _broad_exception_names(node.type):
            yield Finding(
                "SW006",
                str(ctx.path),
                node.lineno,
                node.col_offset,
                f"broad `except {name}`; catch the specific exceptions this "
                "block actually guards",
            )


# --------------------------------------------------------------------------
# SW007 — __all__ completeness
# --------------------------------------------------------------------------


def _top_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module body plus one level of conditional/try blocks."""
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop()
        yield stmt
        if isinstance(stmt, (ast.If, ast.Try)):
            stack.extend(getattr(stmt, "body", []))
            stack.extend(getattr(stmt, "orelse", []))
            stack.extend(getattr(stmt, "finalbody", []))
            for handler in getattr(stmt, "handlers", []):
                stack.extend(handler.body)


def _check_all_exports(ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.is_entry_script or ctx.is_test_module:
        return
    all_node: ast.expr | None = None
    all_line = 1
    defined: set[str] = set()
    public_defs: list[tuple[str, int, int]] = []
    star_import = False
    dynamic_exports = False  # PEP 562 module-level __getattr__
    for stmt in _top_level_statements(ctx.tree):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if target.id == "__all__":
                        all_node, all_line = stmt.value, stmt.lineno
                    else:
                        defined.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if stmt.target.id == "__all__":
                all_node, all_line = stmt.value, stmt.lineno
            else:
                defined.add(stmt.target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
            if stmt.name == "__getattr__":
                dynamic_exports = True
            if not stmt.name.startswith("_"):
                public_defs.append((stmt.name, stmt.lineno, stmt.col_offset))
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                defined.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if alias.name == "*":
                    star_import = True
                else:
                    defined.add(alias.asname or alias.name)
    if ctx.is_package_init:
        for child in sorted(ctx.path.parent.iterdir()):
            if child.suffix == ".py" and child.stem != "__init__":
                defined.add(child.stem)
            elif child.is_dir() and (child / "__init__.py").exists():
                defined.add(child.name)

    if all_node is None:
        yield Finding(
            "SW007",
            str(ctx.path),
            1,
            0,
            "module defines no `__all__`; every module must declare its "
            "public API explicitly",
        )
        return
    try:
        exported = ast.literal_eval(all_node)
    except ValueError:
        yield Finding(
            "SW007",
            str(ctx.path),
            all_line,
            0,
            "`__all__` must be a literal list/tuple of strings",
        )
        return
    if not isinstance(exported, (list, tuple)) or not all(
        isinstance(name, str) for name in exported
    ):
        yield Finding(
            "SW007",
            str(ctx.path),
            all_line,
            0,
            "`__all__` must be a literal list/tuple of strings",
        )
        return
    if not star_import and not dynamic_exports:
        for name in exported:
            if name not in defined:
                yield Finding(
                    "SW007",
                    str(ctx.path),
                    all_line,
                    0,
                    f"`__all__` lists `{name}` which is not defined or "
                    "imported in this module",
                )
    exported_set = set(exported)
    for name, line, col in public_defs:
        if name not in exported_set:
            yield Finding(
                "SW007",
                str(ctx.path),
                line,
                col,
                f"public name `{name}` missing from `__all__` (export it or "
                "prefix with underscore)",
            )


# --------------------------------------------------------------------------
# SW008 — assert in library code
# --------------------------------------------------------------------------


def _check_asserts(ctx: ModuleContext) -> Iterator[Finding]:
    if ctx.is_test_module:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assert):
            yield Finding(
                "SW008",
                str(ctx.path),
                node.lineno,
                node.col_offset,
                "`assert` is stripped under `python -O`; raise an explicit "
                "exception for invariants",
            )


# --------------------------------------------------------------------------
# SW011 — builtin-type dtype arguments on NumPy calls
# --------------------------------------------------------------------------

_BUILTIN_DTYPE_FIX = {"float": "np.float64", "int": "np.int64", "bool": "np.bool_"}


def _check_builtin_dtypes(ctx: ModuleContext) -> Iterator[Finding]:
    for node, resolved in ctx.names.calls.items():
        if not resolved.startswith("numpy."):
            continue
        for kw in node.keywords:
            if kw.arg != "dtype":
                continue
            value = kw.value
            if isinstance(value, ast.Name) and value.id in _BUILTIN_DTYPE_FIX:
                yield Finding(
                    "SW011",
                    str(ctx.path),
                    value.lineno,
                    value.col_offset,
                    f"builtin dtype `{value.id}` in `{resolved}`; use "
                    f"`{_BUILTIN_DTYPE_FIX[value.id]}` — bare `int` is "
                    "platform-dependent and bare float/bool hide the width",
                )


# --------------------------------------------------------------------------
# SW012 — clock reads stored without a unit suffix
# --------------------------------------------------------------------------

# Clock-reading callables -> the unit suffixes a receiving name may carry.
_CLOCK_READERS: dict[str, tuple[str, ...]] = {
    "time.time": ("_s", "_ms"),
    "time.perf_counter": ("_s", "_ms"),
    "time.monotonic": ("_s", "_ms"),
    "time.time_ns": ("_ns",),
    "time.perf_counter_ns": ("_ns",),
    "time.monotonic_ns": ("_ns",),
}


def _assigned_names(target: ast.expr) -> Iterator[tuple[str, int, int]]:
    """Simple names and attribute leaves a value is bound to."""
    if isinstance(target, ast.Name):
        yield target.id, target.lineno, target.col_offset
    elif isinstance(target, ast.Attribute):
        yield target.attr, target.lineno, target.col_offset


def _check_clock_suffix(ctx: ModuleContext) -> Iterator[Finding]:
    calls = ctx.names.calls
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, ast.NamedExpr):
            targets, value = [node.target], node.value
        else:
            continue
        resolved = calls.get(value)
        suffixes = _CLOCK_READERS.get(resolved or "")
        if suffixes is None:
            continue
        for name, line, col in (
            found for target in targets for found in _assigned_names(target)
        ):
            if name.endswith(suffixes):
                continue
            want = "/".join(f"`{s}`" for s in suffixes)
            yield Finding(
                "SW012",
                str(ctx.path),
                line,
                col,
                f"`{resolved}()` result stored in `{name}` without a unit "
                f"suffix; name clock reads with {want} so wall-clock values "
                "are visibly wall-clock (cf. spotunits SW302)",
            )


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            "SW001",
            "global-state RNG call; thread a seeded np.random.Generator",
            _check_global_rng,
        ),
        Rule(
            "SW002",
            "wall-clock read inside a DES-owned module (repro.simulator/core)",
            _check_wall_clock,
        ),
        Rule("SW003", "float ==/!= comparison", _check_float_eq),
        Rule(
            "SW004",
            "frozen dataclass with writable ndarray field",
            _check_frozen_arrays,
        ),
        Rule("SW005", "mutable default argument", _check_mutable_defaults),
        Rule("SW006", "bare except / except Exception", _check_broad_except),
        Rule("SW007", "missing, incomplete, or stale __all__", _check_all_exports),
        Rule("SW008", "assert in library code", _check_asserts),
        Rule(
            "SW011",
            "builtin-type dtype= on a NumPy call (use np.float64/np.int64)",
            _check_builtin_dtypes,
        ),
        Rule(
            "SW012",
            "clock read stored without a unit suffix (_s/_ms, _ns for *_ns)",
            _check_clock_suffix,
        ),
    )
}
