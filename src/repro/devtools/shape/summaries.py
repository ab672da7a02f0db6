"""Interprocedural call summaries: ``@shapes`` contracts read statically.

Pass A of ``spotshape`` walks every module and records, per function
carrying a :func:`repro.devtools.contracts.shapes` decorator, the parsed
parameter and return specs.  Pass B (:mod:`repro.devtools.shape.analyze`)
then treats those contracts as the function's transfer summary: call
sites are checked against the parameter specs (SW200) and the return
spec — with the call site's symbol bindings substituted — becomes the
abstract value of the call expression.

Summaries serialize to JSON as the original spec *strings* (the grammar
in :mod:`repro.devtools.specs` round-trips), which keeps the cache file
human-readable and the global summary digest stable.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable

from repro.devtools.rules import ModuleContext
from repro.devtools.specs import ShapeSpec, parse_spec

__all__ = [
    "ContractSummary",
    "ModuleSummaries",
    "SummaryTable",
    "collect_aliases",
    "resolve_relative",
    "dotted_target",
    "extract_summaries",
    "summary_digest",
]

_SHAPES_DECORATOR = "repro.devtools.contracts.shapes"
_SKIP_SPECS = (None, "*", "...")


@dataclass(frozen=True)
class ContractSummary:
    """The declared ``@shapes`` contract of one function.

    ``params`` maps parameter name -> spec string (only declared params
    appear); ``ret`` is the return spec string or ``None``.  Parsed forms
    are derived lazily so the dataclass stays JSON-trivial.
    """

    function: str  # dotted id, e.g. "repro.core.discretize.refine_counts"
    qualname: str
    line: int
    args: tuple[str, ...]  # full positional parameter order (self/cls skipped)
    params: tuple[tuple[str, str], ...]
    ret: str | None

    def param_specs(self) -> dict[str, tuple[ShapeSpec, ...]]:
        return {name: parse_spec(spec) for name, spec in self.params}

    def ret_spec(self) -> tuple[ShapeSpec, ...] | None:
        return parse_spec(self.ret) if self.ret is not None else None

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
    def from_dict(cls, data: dict) -> "ContractSummary":
        return cls(
            function=data["function"],
            qualname=data["qualname"],
            line=data["line"],
            args=tuple(data["args"]),
            params=tuple((n, s) for n, s in data["params"]),
            ret=data["ret"],
        )


@dataclass(frozen=True)
class ModuleSummaries:
    """Pass-A output for one file: its contracts plus re-export aliases."""

    path: str
    module: str | None
    summaries: tuple[ContractSummary, ...]
    export_aliases: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "module": self.module,
            "summaries": [s.to_dict() for s in self.summaries],
            "export_aliases": dict(self.export_aliases),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleSummaries":
        return cls(
            path=data["path"],
            module=data["module"],
            summaries=tuple(
                ContractSummary.from_dict(s) for s in data["summaries"]
            ),
            export_aliases=dict(data["export_aliases"]),
        )


# --------------------------------------------------------------------------
# Name/alias resolution (the spotgraph convention, scoped to what the
# shape interpreter needs)
# --------------------------------------------------------------------------


def resolve_relative(
    module: str | None, node: ast.ImportFrom, is_pkg: bool
) -> str | None:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    if module is None:
        return None
    parts = module.split(".")
    if not is_pkg:
        parts = parts[:-1]
    drop = node.level - 1
    if drop > len(parts):
        return None
    base = parts[: len(parts) - drop]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def collect_aliases(
    tree: ast.AST, module: str | None, is_pkg: bool
) -> tuple[dict[str, str], dict[str, str]]:
    """``(aliases, export_aliases)`` for a module's imports.

    ``aliases`` maps every locally importable name to its dotted origin
    (``np`` -> ``numpy``, ``shapes`` -> ``repro.devtools.contracts.shapes``);
    ``export_aliases`` is the ``from X import y`` subset other modules may
    re-export through.
    """
    aliases: dict[str, str] = {}
    exports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".", 1)[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            target = resolve_relative(module, node, is_pkg)
            if target is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                dotted = f"{target}.{alias.name}"
                aliases[local] = dotted
                exports[local] = dotted
    return aliases, exports


def dotted_target(
    func: ast.expr,
    aliases: dict[str, str],
    module: str | None,
    module_symbols: set[str],
    locals_: set[str] = frozenset(),
) -> str | None:
    """Resolve a call/decorator expression to a dotted path, if possible."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = node.id
    if base in locals_ and base not in aliases:
        return None
    if base in aliases:
        parts.append(aliases[base])
    elif base in module_symbols and module:
        parts.append(f"{module}.{base}")
    else:
        return None
    return ".".join(reversed(parts))


# --------------------------------------------------------------------------
# Contract extraction (pass A)
# --------------------------------------------------------------------------


def _spec_string(node: ast.expr) -> str | None:
    """The literal spec string of one decorator argument, if it is one."""
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
) -> ContractSummary | None:
    for deco in fn.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        target = dotted_target(deco.func, aliases, module, module_symbols)
        if target != _SHAPES_DECORATOR:
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
                if not (isinstance(arg, ast.Constant) and arg.value in _SKIP_SPECS):
                    ok = False  # dynamic spec expression: not summarizable
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
        if not ok:
            return None
        try:
            for _, spec in params:
                parse_spec(spec)
            if ret is not None:
                parse_spec(ret)
        except ValueError:
            return None  # runtime import would already have failed
        if module is None:
            return None
        return ContractSummary(
            function=f"{module}.{qualname}",
            qualname=qualname,
            line=fn.lineno,
            args=tuple(names),
            params=tuple(params),
            ret=ret,
        )
    return None


def extract_summaries(ctx: ModuleContext) -> ModuleSummaries:
    """Pass A for one parsed file: contracts plus re-export aliases."""
    module, tree = ctx.module, ctx.tree
    aliases, exports = collect_aliases(tree, module, ctx.is_package_init)
    module_symbols = {
        stmt.name
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }

    found: list[ContractSummary] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary = _summarize_function(
                stmt, stmt.name, module, aliases, module_symbols, is_method=False
            )
            if summary is not None:
                found.append(summary)
        elif isinstance(stmt, ast.ClassDef):
            for inner in stmt.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    summary = _summarize_function(
                        inner,
                        f"{stmt.name}.{inner.name}",
                        module,
                        aliases,
                        module_symbols,
                        is_method=True,
                    )
                    if summary is not None:
                        found.append(summary)
    return ModuleSummaries(
        path=str(ctx.path),
        module=module,
        summaries=tuple(found),
        export_aliases=exports,
    )


# --------------------------------------------------------------------------
# The linked table
# --------------------------------------------------------------------------


class SummaryTable:
    """All contracts in the project, addressable through re-export chains."""

    def __init__(self, modules: Iterable[ModuleSummaries]) -> None:
        self.modules: list[ModuleSummaries] = sorted(
            modules, key=lambda m: m.path
        )
        self.by_function: dict[str, ContractSummary] = {}
        self.reexports: dict[str, str] = {}
        for mod in self.modules:
            for summary in mod.summaries:
                self.by_function[summary.function] = summary
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

    def lookup(self, dotted: str | None) -> ContractSummary | None:
        """The contract for a (possibly re-exported) call target."""
        if dotted is None:
            return None
        return self.by_function.get(self.resolve(dotted))


def summary_digest(table: SummaryTable) -> str:
    """A stable digest of every contract — pass B's cross-file cache key."""
    payload = json.dumps(
        [
            self_dict
            for self_dict in sorted(
                (s.to_dict() for s in table.by_function.values()),
                key=lambda d: d["function"],
            )
        ],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
