"""How a name resolves: the one resolver every analyzer shares.

A call, decorator or annotation expression resolves to a dotted path
(``np.random.normal`` -> ``numpy.random.normal``, ``step`` ->
``repro.core.engine.step``) through three facts about its module:

- the **imports** (:func:`collect_imports`): every import-bound name and
  its dotted origin, the ``from X import y`` names other modules may
  re-export through (``TYPE_CHECKING`` imports excluded: they are erased
  at runtime), and the import edges with their typing-only mark;
- the module's top-level **symbols**;
- the enclosing function's **locals** (:func:`local_names`), which shadow
  both: a parameter named ``time`` is not the ``time`` module.

Re-exports are followed across modules by :func:`follow_reexports`;
:func:`walk_functions` is the one walk over a module's functions.
:class:`ModuleNames` holds all of it for one parsed module, computed
once per run (``ModuleContext.names``) and shared by every analyzer.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "ImportEdge",
    "Imports",
    "ModuleNames",
    "collect_imports",
    "dotted_target",
    "follow_reexports",
    "local_names",
    "module_symbols",
    "resolve_relative",
    "walk_functions",
]


@dataclass(frozen=True)
class ImportEdge:
    """One import statement's target module."""

    target: str
    line: int
    typing_only: bool


@dataclass(frozen=True)
class Imports:
    """What a module's import statements bind."""

    aliases: dict[str, str]  # local name -> dotted origin, every import
    exports: dict[str, str]  # the runtime ``from X import y`` subset
    edges: tuple[ImportEdge, ...]


def resolve_relative(
    module: str | None, node: ast.ImportFrom, is_pkg: bool
) -> str | None:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    if module is None:
        return None
    parts = module.split(".")
    # A package's __init__ resolves `from .` against itself; a plain module
    # resolves against its parent package.
    if not is_pkg:
        parts = parts[:-1]
    drop = node.level - 1
    if drop > len(parts):
        return None
    base = parts[: len(parts) - drop]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _import_statements(
    node: ast.AST, typing_only: bool = False
) -> Iterator[tuple[ast.Import | ast.ImportFrom, bool]]:
    """Every import under ``node`` in source order, marked typing-only
    when it sits in the body of an ``if TYPE_CHECKING:``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node, typing_only
    elif isinstance(node, ast.If) and _is_type_checking(node.test):
        for child in node.body:
            yield from _import_statements(child, True)
        for child in node.orelse:
            yield from _import_statements(child, typing_only)
    else:
        for child in ast.iter_child_nodes(node):
            yield from _import_statements(child, typing_only)


def collect_imports(tree: ast.AST, module: str | None, is_pkg: bool) -> Imports:
    """The aliases, runtime re-exports and import edges of one module."""
    aliases: dict[str, str] = {}
    exports: dict[str, str] = {}
    edges: list[ImportEdge] = []
    for node, typing_only in _import_statements(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append(ImportEdge(alias.name, node.lineno, typing_only))
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    # ``import numpy.random`` binds the *root* name.
                    root = alias.name.split(".", 1)[0]
                    aliases[root] = root
            continue
        target = resolve_relative(module, node, is_pkg)
        if target is None:
            continue
        for alias in node.names:
            if alias.name == "*":
                edges.append(ImportEdge(target, node.lineno, typing_only))
                continue
            # `from repro import obs` is really an edge to repro.obs; for
            # any deeper package the package itself is the layering target.
            edge_target = f"{target}.{alias.name}" if target == "repro" else target
            edges.append(ImportEdge(edge_target, node.lineno, typing_only))
            local = alias.asname or alias.name
            dotted = f"{target}.{alias.name}"
            aliases[local] = dotted
            if not typing_only:
                exports[local] = dotted
    return Imports(aliases, exports, tuple(edges))


def module_symbols(tree: ast.Module) -> set[str]:
    """Names the module body binds by ``def``, ``class`` or assignment."""
    symbols: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            symbols.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            symbols.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            symbols.add(stmt.target.id)
    return symbols


def local_names(fn: ast.AST) -> set[str]:
    """Names bound locally inside a function (params, assignments, ...).

    Names bound only by an import are left out: an import inside a
    function still resolves through the module's aliases.
    """
    names: set[str] = set()
    declared_global: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if node is not fn and not isinstance(node, ast.Lambda):
                names.add(node.name)
            args = node.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                names.add(arg.arg)
            if args.vararg:
                names.add(args.vararg.arg)
            if args.kwarg:
                names.add(args.kwarg.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names - declared_global


def dotted_target(
    expr: ast.expr,
    aliases: Mapping[str, str],
    module: str | None,
    symbols: set[str],
    locals_: set[str] = frozenset(),
    class_name: str | None = None,
) -> str | None:
    """Resolve a call/decorator/annotation expression to a dotted path.

    A local shadows an import alias and a module symbol of the same
    name; inside a method, ``self.name`` resolves to the class's member.
    """
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = node.id
    if base == "self" and class_name is not None and len(parts) == 1:
        return f"{module}.{class_name}.{parts[0]}" if module else None
    if base in locals_:
        return None
    if base in aliases:
        parts.append(aliases[base])
    elif base in symbols and module:
        parts.append(f"{module}.{base}")
    else:
        return None
    return ".".join(reversed(parts))


def follow_reexports(reexports: Mapping[str, str], dotted: str) -> str:
    """Follow ``module.local -> origin`` re-export chains to a stable name."""
    seen: set[str] = set()
    while dotted in reexports and dotted not in seen:
        seen.add(dotted)
        dotted = reexports[dotted]
    return dotted


def walk_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str, str | None]]:
    """``(function, qualname, class name)`` for each top-level function and
    method; nested functions belong to the scope that encloses them."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield stmt, stmt.name, None
        elif isinstance(stmt, ast.ClassDef):
            for inner in stmt.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield inner, f"{stmt.name}.{inner.name}", stmt.name


class ModuleNames:
    """One module's names, resolved once and shared by every analyzer."""

    def __init__(self, tree: ast.Module, module: str | None, is_pkg: bool) -> None:
        self.tree = tree
        self.module = module
        self.imports = collect_imports(tree, module, is_pkg)
        self.symbols = module_symbols(tree)
        #: ``(function, qualname, class name, locals)`` per walked function
        self.functions = [
            (fn, qualname, class_name, local_names(fn))
            for fn, qualname, class_name in walk_functions(tree)
        ]

    def resolve(
        self,
        expr: ast.expr,
        locals_: set[str] = frozenset(),
        class_name: str | None = None,
    ) -> str | None:
        """:func:`dotted_target` against this module's imports and symbols."""
        return dotted_target(
            expr, self.imports.aliases, self.module, self.symbols, locals_,
            class_name,
        )

    @cached_property
    def calls(self) -> dict[ast.Call, str]:
        """Every resolvable call -> its dotted target, each resolved in the
        scope of the function that encloses it."""
        scope: dict[ast.Call, tuple[set[str], str | None]] = {}
        for fn, _qualname, class_name, locals_ in self.functions:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    scope[node] = (locals_, class_name)
        targets: dict[ast.Call, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                target = self.resolve(node.func, *scope.get(node, ()))
                if target is not None:
                    targets[node] = target
        return targets
