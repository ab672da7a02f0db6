"""Declared contracts read statically: the summaries shape and units share.

Pass A of the ``shape`` and ``units`` analyzers walks every module and
records the contracts declared with :mod:`repro.devtools.contracts`:

- per function, a :class:`Contract` — the parameter and return specs of
  its ``@shapes`` or ``@units`` decorator;
- per class, a :class:`FieldTable` — its ``@field_units`` declarations —
  and, for units, a :class:`ClassDefs` — the attributes it defines.

Pass B (the interpreters in :mod:`repro.devtools.interp`) looks them up
in the linked :class:`ContractTable`: a contract seeds its function's
environment, checks each call site and gives the call its value.  The
two analyzers differ only in the decorator names and the spec grammar
handed to :func:`extract_contracts` (``parse_spec`` or ``parse_unit``).
Records keep the original spec *strings*; each interpreter parses them
with its grammar from :mod:`repro.devtools.specs`.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.devtools.names import follow_reexports
from repro.devtools.rules import ModuleContext

__all__ = [
    "ClassDefs",
    "Contract",
    "ContractTable",
    "FieldTable",
    "ModuleContracts",
    "extract_contracts",
]

_SKIP_SPECS = (None, "*", "...")


@dataclass(frozen=True)
class Contract:
    """The declared contract of one function; specs are kept as text."""

    function: str  # dotted id, e.g. "repro.core.discretize.refine_counts"
    qualname: str
    line: int
    args: tuple[str, ...]  # full positional parameter order (self/cls skipped)
    params: tuple[tuple[str, str], ...]  # declared params only
    ret: str | None


@dataclass(frozen=True)
class FieldTable:
    """The declared ``@field_units`` table of one class."""

    cls: str  # dotted id, e.g. "repro.markets.dataset.MarketDataset"
    qualname: str
    line: int
    fields: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ClassDefs:
    """The attributes one class defines itself, and the bases it names."""

    cls: str
    bases: tuple[str | None, ...]  # dotted; None where a base does not resolve
    names: frozenset[str]


@dataclass(frozen=True)
class ModuleContracts:
    """Pass-A output for one file: contracts, class tables, re-exports."""

    path: str
    module: str | None
    contracts: tuple[Contract, ...]
    classes: tuple[FieldTable, ...] = ()
    exports: dict[str, str] = field(default_factory=dict)
    class_defs: tuple[ClassDefs, ...] = ()


# --------------------------------------------------------------------------
# Extraction (pass A)
# --------------------------------------------------------------------------


def _spec_string(node: ast.expr) -> str | None:
    """The literal spec string of one decorator argument, if it is one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _parses(grammar: Callable[[str], object], specs: Iterable[str]) -> bool:
    try:
        for spec in specs:
            grammar(spec)
    except ValueError:
        return False  # runtime import would already have failed
    return True


def _decorator(
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef,
    ctx: ModuleContext,
    decorators: frozenset[str],
) -> ast.Call | None:
    """The first decorator call on ``node`` that resolves into ``decorators``."""
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call) and ctx.names.resolve(deco.func) in decorators:
            return deco
    return None


def _function_contract(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    is_method: bool,
    ctx: ModuleContext,
    decorators: frozenset[str],
    grammar: Callable[[str], object],
) -> Contract | None:
    deco = _decorator(fn, ctx, decorators)
    if deco is None or ctx.module is None:
        return None
    names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    params: list[tuple[str, str]] = []
    ret: str | None = None
    for name, arg in zip(names, deco.args):
        spec = _spec_string(arg)
        if spec is None:
            if not (isinstance(arg, ast.Constant) and arg.value in _SKIP_SPECS):
                return None  # dynamic spec expression: not summarizable
            continue
        if spec in _SKIP_SPECS:
            continue
        params.append((name, spec))
    for kw in deco.keywords:
        spec = _spec_string(kw.value)
        if kw.arg == "ret":
            ret = spec if spec not in _SKIP_SPECS else None
        elif kw.arg is not None and spec is not None and spec not in _SKIP_SPECS:
            params.append((kw.arg, spec))
    specs = [spec for _, spec in params] + ([ret] if ret is not None else [])
    if not _parses(grammar, specs):
        return None
    return Contract(
        function=f"{ctx.module}.{qualname}",
        qualname=qualname,
        line=fn.lineno,
        args=tuple(names),
        params=tuple(params),
        ret=ret,
    )


def _field_table(
    cls: ast.ClassDef,
    ctx: ModuleContext,
    decorators: frozenset[str],
    grammar: Callable[[str], object],
) -> FieldTable | None:
    deco = _decorator(cls, ctx, decorators)
    if deco is None or ctx.module is None:
        return None
    fields: list[tuple[str, str]] = []
    for kw in deco.keywords:
        spec = _spec_string(kw.value)
        if kw.arg is None or spec is None:
            return None  # **dynamic or non-literal spec
        fields.append((kw.arg, spec))
    if not _parses(grammar, [spec for _, spec in fields]):
        return None
    return FieldTable(
        cls=f"{ctx.module}.{cls.name}",
        qualname=cls.name,
        line=cls.lineno,
        fields=tuple(fields),
    )


def _class_defs(cls: ast.ClassDef, ctx: ModuleContext) -> ClassDefs:
    """What ``cls`` defines: its class-level names and every ``self.x`` or
    ``cls.x`` store in its body."""
    names: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update(
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            )
    names.update(
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("self", "cls")
    )
    bases = tuple(
        ctx.names.resolve(base)
        for base in cls.bases
        if not (isinstance(base, ast.Name) and base.id == "object")
    )
    return ClassDefs(f"{ctx.module}.{cls.name}", bases, frozenset(names))


def extract_contracts(
    ctx: ModuleContext,
    decorators: frozenset[str],
    grammar: Callable[[str], object],
    field_decorators: frozenset[str] = frozenset(),
) -> ModuleContracts:
    """Pass A for one parsed file: the contracts whose decorator resolves
    into ``decorators`` and whose specs parse under ``grammar``, the
    ``field_decorators`` class tables (with every class's definitions
    when there are such decorators), and the module's re-exports."""
    contracts: list[Contract] = []
    for fn, qualname, class_name, _locals in ctx.names.functions:
        is_method = class_name is not None
        contract = _function_contract(
            fn, qualname, is_method, ctx, decorators, grammar
        )
        if contract is not None:
            contracts.append(contract)
    classes: list[FieldTable] = []
    class_defs: list[ClassDefs] = []
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.ClassDef):
            table = _field_table(stmt, ctx, field_decorators, grammar)
            if table is not None:
                classes.append(table)
            if field_decorators and ctx.module is not None:
                class_defs.append(_class_defs(stmt, ctx))
    return ModuleContracts(
        path=str(ctx.path),
        module=ctx.module,
        contracts=tuple(contracts),
        classes=tuple(classes),
        exports=ctx.names.imports.exports,
        class_defs=tuple(class_defs),
    )


# --------------------------------------------------------------------------
# The linked table
# --------------------------------------------------------------------------


class ContractTable:
    """Every contract and field table in the project, addressable through
    re-export chains."""

    def __init__(self, modules: Iterable[ModuleContracts]) -> None:
        self.modules: list[ModuleContracts] = sorted(modules, key=lambda m: m.path)
        self.by_function: dict[str, Contract] = {}
        self.by_class: dict[str, FieldTable] = {}
        self.class_defs: dict[str, ClassDefs] = {}
        self.reexports: dict[str, str] = {}
        for mod in self.modules:
            for contract in mod.contracts:
                self.by_function[contract.function] = contract
            for table in mod.classes:
                self.by_class[table.cls] = table
            for defs in mod.class_defs:
                self.class_defs[defs.cls] = defs
            if mod.module:
                for local, dotted in mod.exports.items():
                    self.reexports[f"{mod.module}.{local}"] = dotted

    def resolve(self, dotted: str) -> str:
        """Follow re-export chains to a stable dotted name."""
        return follow_reexports(self.reexports, dotted)

    def lookup(self, dotted: str | None) -> Contract | None:
        """The contract for a (possibly re-exported) call target."""
        if dotted is None:
            return None
        return self.by_function.get(self.resolve(dotted))

    def lookup_class(self, dotted: str | None) -> FieldTable | None:
        """The field table for a (possibly re-exported) class."""
        if dotted is None:
            return None
        return self.by_class.get(self.resolve(dotted))

    def defined_names(
        self, dotted: str, seen: frozenset[str] = frozenset()
    ) -> frozenset[str] | None:
        """Every attribute a class or one of its bases defines; ``None`` when
        a base is outside the table (it may define anything)."""
        defs = self.class_defs.get(self.resolve(dotted))
        if defs is None or defs.cls in seen:
            return None
        names = defs.names
        for base in defs.bases:
            inherited = self.defined_names(base, seen | {defs.cls}) if base else None
            if inherited is None:
                return None
            names |= inherited
        return names
