"""Interprocedural unit facts: ``@units``/``@field_units`` read statically.

Pass A of ``spotunits`` walks every module and records two kinds of
declarations from :mod:`repro.devtools.contracts`:

- per-function ``@units`` contracts (parameter and return unit specs),
  which pass B (:mod:`repro.devtools.units.analyze`) uses both to seed a
  function's own environment and to check its call sites (SW301);
- per-class ``@field_units`` tables, which give attribute loads
  (``self.x``, and ``obj.x`` when ``obj``'s type is known from an
  annotation) a unit.

Both serialize to JSON as the original spec *strings* (the shared
grammar in :mod:`repro.devtools.specs` round-trips), keeping the cache
human-readable and the global digest stable.  The alias/re-export
machinery is spotshape's, imported rather than re-implemented.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable

from repro.devtools.rules import ModuleContext
from repro.devtools.shape.summaries import (
    collect_aliases,
    dotted_target,
)
from repro.devtools.specs import UnitSpec, parse_unit

__all__ = [
    "ClassUnits",
    "UnitContract",
    "UnitModuleSummaries",
    "UnitTable",
    "extract_unit_summaries",
    "unit_summary_digest",
]

#: dotted spellings that count as the ``@units`` decorator.  The bare
#: ``repro.devtools.units`` name is this analyzer package, so the
#: decorator is only importable from ``repro.devtools.contracts``.
UNITS_DECORATORS = frozenset({"repro.devtools.contracts.units"})
FIELD_UNITS_DECORATORS = frozenset(
    {"repro.devtools.contracts.field_units", "repro.devtools.field_units"}
)
_SKIP_SPECS = (None, "*", "...")


@dataclass(frozen=True)
class UnitContract:
    """The declared ``@units`` contract of one function."""

    function: str  # dotted id, e.g. "repro.markets.cloud.accrue"
    qualname: str
    line: int
    args: tuple[str, ...]  # positional parameter order (self/cls skipped)
    params: tuple[tuple[str, str], ...]
    ret: str | None

    def param_units(self) -> dict[str, UnitSpec]:
        return {name: parse_unit(spec) for name, spec in self.params}

    def ret_unit(self) -> UnitSpec | None:
        return parse_unit(self.ret) if self.ret is not None else None

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "qualname": self.qualname,
            "line": self.line,
            "args": list(self.args),
            "params": [[n, s] for n, s in self.params],
            "ret": self.ret,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UnitContract":
        return cls(
            function=data["function"],
            qualname=data["qualname"],
            line=data["line"],
            args=tuple(data["args"]),
            params=tuple((n, s) for n, s in data["params"]),
            ret=data["ret"],
        )


@dataclass(frozen=True)
class ClassUnits:
    """The declared ``@field_units`` table of one class."""

    cls: str  # dotted id, e.g. "repro.markets.dataset.MarketDataset"
    qualname: str
    line: int
    fields: tuple[tuple[str, str], ...]

    def field_units(self) -> dict[str, UnitSpec]:
        return {name: parse_unit(spec) for name, spec in self.fields}

    def to_dict(self) -> dict:
        return {
            "cls": self.cls,
            "qualname": self.qualname,
            "line": self.line,
            "fields": [[n, s] for n, s in self.fields],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClassUnits":
        return cls(
            cls=data["cls"],
            qualname=data["qualname"],
            line=data["line"],
            fields=tuple((n, s) for n, s in data["fields"]),
        )


@dataclass(frozen=True)
class UnitModuleSummaries:
    """Pass-A output for one file: contracts, class tables, re-exports."""

    path: str
    module: str | None
    contracts: tuple[UnitContract, ...]
    classes: tuple[ClassUnits, ...] = ()
    export_aliases: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "module": self.module,
            "contracts": [c.to_dict() for c in self.contracts],
            "classes": [c.to_dict() for c in self.classes],
            "export_aliases": dict(self.export_aliases),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UnitModuleSummaries":
        return cls(
            path=data["path"],
            module=data["module"],
            contracts=tuple(
                UnitContract.from_dict(c) for c in data["contracts"]
            ),
            classes=tuple(ClassUnits.from_dict(c) for c in data["classes"]),
            export_aliases=dict(data["export_aliases"]),
        )


# --------------------------------------------------------------------------
# Extraction (pass A)
# --------------------------------------------------------------------------


def _spec_string(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _summarize_function(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    module: str | None,
    aliases: dict[str, str],
    module_symbols: set[str],
    *,
    is_method: bool,
) -> UnitContract | None:
    for deco in fn.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        target = dotted_target(deco.func, aliases, module, module_symbols)
        if target not in UNITS_DECORATORS:
            continue
        names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        if is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        params: list[tuple[str, str]] = []
        ret: str | None = None
        ok = True
        for name, arg in zip(names, deco.args):
            spec = _spec_string(arg)
            if spec is None:
                if not (
                    isinstance(arg, ast.Constant) and arg.value in _SKIP_SPECS
                ):
                    ok = False  # dynamic spec expression: not summarizable
                continue
            if spec in _SKIP_SPECS:
                continue
            params.append((name, spec))
        for kw in deco.keywords:
            spec = _spec_string(kw.value)
            if kw.arg == "ret":
                ret = spec if spec not in _SKIP_SPECS else None
            elif (
                kw.arg is not None
                and spec is not None
                and spec not in _SKIP_SPECS
            ):
                params.append((kw.arg, spec))
        if not ok or module is None:
            return None
        try:
            for _, spec in params:
                parse_unit(spec)
            if ret is not None:
                parse_unit(ret)
        except ValueError:
            return None  # runtime import would already have failed
        return UnitContract(
            function=f"{module}.{qualname}",
            qualname=qualname,
            line=fn.lineno,
            args=tuple(names),
            params=tuple(params),
            ret=ret,
        )
    return None


def _summarize_class(
    cls: ast.ClassDef,
    module: str | None,
    aliases: dict[str, str],
    module_symbols: set[str],
) -> ClassUnits | None:
    for deco in cls.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        target = dotted_target(deco.func, aliases, module, module_symbols)
        if target not in FIELD_UNITS_DECORATORS:
            continue
        fields: list[tuple[str, str]] = []
        for kw in deco.keywords:
            spec = _spec_string(kw.value)
            if kw.arg is None or spec is None:
                return None  # **dynamic or non-literal spec
            fields.append((kw.arg, spec))
        if module is None:
            return None
        try:
            for _, spec in fields:
                parse_unit(spec)
        except ValueError:
            return None
        return ClassUnits(
            cls=f"{module}.{cls.name}",
            qualname=cls.name,
            line=cls.lineno,
            fields=tuple(fields),
        )
    return None


def extract_unit_summaries(ctx: ModuleContext) -> UnitModuleSummaries:
    """Pass A for one parsed file: unit contracts, class tables, re-exports."""
    module, tree = ctx.module, ctx.tree
    aliases, exports = collect_aliases(tree, module, ctx.is_package_init)
    module_symbols = {
        stmt.name
        for stmt in tree.body
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
    }

    contracts: list[UnitContract] = []
    classes: list[ClassUnits] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary = _summarize_function(
                stmt, stmt.name, module, aliases, module_symbols,
                is_method=False,
            )
            if summary is not None:
                contracts.append(summary)
        elif isinstance(stmt, ast.ClassDef):
            table = _summarize_class(stmt, module, aliases, module_symbols)
            if table is not None:
                classes.append(table)
            for inner in stmt.body:
                if isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    summary = _summarize_function(
                        inner,
                        f"{stmt.name}.{inner.name}",
                        module,
                        aliases,
                        module_symbols,
                        is_method=True,
                    )
                    if summary is not None:
                        contracts.append(summary)
    return UnitModuleSummaries(
        path=str(ctx.path),
        module=module,
        contracts=tuple(contracts),
        classes=tuple(classes),
        export_aliases=exports,
    )


# --------------------------------------------------------------------------
# The linked table
# --------------------------------------------------------------------------


class UnitTable:
    """All unit facts in the project, addressable through re-exports."""

    def __init__(self, modules: Iterable[UnitModuleSummaries]) -> None:
        self.modules: list[UnitModuleSummaries] = sorted(
            modules, key=lambda m: m.path
        )
        self.by_function: dict[str, UnitContract] = {}
        self.by_class: dict[str, ClassUnits] = {}
        self.reexports: dict[str, str] = {}
        for mod in self.modules:
            for contract in mod.contracts:
                self.by_function[contract.function] = contract
            for table in mod.classes:
                self.by_class[table.cls] = table
            if mod.module:
                for local, dotted in mod.export_aliases.items():
                    self.reexports[f"{mod.module}.{local}"] = dotted

    def resolve(self, dotted: str) -> str:
        """Follow re-export chains to a stable dotted name."""
        seen: set[str] = set()
        while dotted in self.reexports and dotted not in seen:
            seen.add(dotted)
            dotted = self.reexports[dotted]
        return dotted

    def lookup(self, dotted: str | None) -> UnitContract | None:
        """The unit contract for a (possibly re-exported) call target."""
        if dotted is None:
            return None
        return self.by_function.get(self.resolve(dotted))

    def lookup_class(self, dotted: str | None) -> ClassUnits | None:
        if dotted is None:
            return None
        return self.by_class.get(self.resolve(dotted))

    def field_unit(self, cls: str | None, attr: str) -> UnitSpec | None:
        """The declared unit of ``<cls instance>.<attr>``, if any."""
        table = self.lookup_class(cls)
        if table is None:
            return None
        spec = dict(table.fields).get(attr)
        return parse_unit(spec) if spec is not None else None


def unit_summary_digest(table: UnitTable) -> str:
    """A stable digest of every unit fact — pass B's cross-file cache key."""
    payload = json.dumps(
        {
            "functions": sorted(
                (c.to_dict() for c in table.by_function.values()),
                key=lambda d: d["function"],
            ),
            "classes": sorted(
                (c.to_dict() for c in table.by_class.values()),
                key=lambda d: d["cls"],
            ),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
