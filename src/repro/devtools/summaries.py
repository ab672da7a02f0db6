"""Declared contracts read statically: the summaries shape and units share.

Pass A of the ``shape`` and ``units`` analyzers walks every module and
records the contracts declared with :mod:`repro.devtools.contracts`:

- per function, a :class:`Contract` — the parameter and return specs of
  its ``@shapes`` or ``@units`` decorator;
- per class, a :class:`FieldTable` — its ``@field_units`` declarations.

Pass B (the interpreters in :mod:`repro.devtools.interp`) looks them up
in the linked :class:`ContractTable`: a contract seeds its function's
environment, checks each call site and gives the call its value.  The
two analyzers differ only in the decorator names and the spec grammar
handed to :func:`extract_contracts` (``parse_spec`` or ``parse_unit``).

Records serialize to JSON as the original spec *strings* (both grammars
in :mod:`repro.devtools.specs` round-trip), which keeps the cache file
human-readable and the table digest stable.
"""

from __future__ import annotations

import ast
import hashlib
import json
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass, field

from repro.devtools.names import follow_reexports
from repro.devtools.rules import ModuleContext

__all__ = [
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
class ModuleContracts:
    """Pass-A output for one file: contracts, class tables, re-exports."""

    path: str
    module: str | None
    contracts: tuple[Contract, ...]
    classes: tuple[FieldTable, ...] = ()
    exports: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleContracts":
        def pairs(items) -> tuple[tuple[str, str], ...]:
            return tuple((name, spec) for name, spec in items)

        return cls(
            path=data["path"],
            module=data["module"],
            contracts=tuple(
                Contract(
                    c["function"], c["qualname"], c["line"], tuple(c["args"]),
                    pairs(c["params"]), c["ret"],
                )
                for c in data["contracts"]
            ),
            classes=tuple(
                FieldTable(c["cls"], c["qualname"], c["line"], pairs(c["fields"]))
                for c in data["classes"]
            ),
            exports=dict(data["exports"]),
        )


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


def extract_contracts(
    ctx: ModuleContext,
    decorators: frozenset[str],
    grammar: Callable[[str], object],
    field_decorators: frozenset[str] = frozenset(),
) -> ModuleContracts:
    """Pass A for one parsed file: the contracts whose decorator resolves
    into ``decorators`` and whose specs parse under ``grammar``, the
    ``field_decorators`` class tables, and the module's re-exports."""
    contracts: list[Contract] = []
    for fn, qualname, class_name, _locals in ctx.names.functions:
        is_method = class_name is not None
        contract = _function_contract(
            fn, qualname, is_method, ctx, decorators, grammar
        )
        if contract is not None:
            contracts.append(contract)
    classes: list[FieldTable] = []
    for stmt in ctx.tree.body:
        if isinstance(stmt, ast.ClassDef):
            table = _field_table(stmt, ctx, field_decorators, grammar)
            if table is not None:
                classes.append(table)
    return ModuleContracts(
        path=str(ctx.path),
        module=ctx.module,
        contracts=tuple(contracts),
        classes=tuple(classes),
        exports=ctx.names.imports.exports,
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
        self.reexports: dict[str, str] = {}
        for mod in self.modules:
            for contract in mod.contracts:
                self.by_function[contract.function] = contract
            for table in mod.classes:
                self.by_class[table.cls] = table
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

    def digest(self) -> str:
        """A stable digest of every contract — pass B's cross-file cache key."""
        payload = json.dumps(
            {
                "functions": [asdict(c) for _, c in sorted(self.by_function.items())],
                "classes": [asdict(c) for _, c in sorted(self.by_class.items())],
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
