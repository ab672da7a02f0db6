"""Per-file fact extraction for ``spotgraph``.

The whole-program passes in :mod:`repro.devtools.graph` (layering, taint,
purity) never touch the AST directly — they run over :class:`ModuleFacts`
records extracted here, one per file.  Facts are JSON-serializable on
purpose: the driver (:mod:`repro.devtools.check`) caches them by file
content, so a re-run only re-parses the files that changed.

Extracted per module:

- the dotted module name and its **import edges** (with ``TYPE_CHECKING``
  imports marked typing-only — they are erased at runtime and exempt from
  layering/cycle checks);
- a **symbol table** of module-level functions, classes and methods, plus
  the ``from X import y`` aliases other modules may re-export through;
- per function: **call sites** (resolved by :mod:`repro.devtools.names`,
  shared with the other analyzers), ``default_rng`` call shapes,
  reads/writes of module-level mutable globals, and unordered-iteration
  hazards (``set``/``os.listdir``/``Path.iterdir`` without ``sorted``);
- ``pmap`` dispatch sites and the worker callable each resolves to;
- the ``# spotlint:`` annotations below.

Annotation grammar (trailing comment on the ``def`` line or the line
directly above it; ``-file`` forms apply to the whole module)::

    # spotlint: deterministic          declare a determinism sink
    # spotlint: deterministic-file
    # spotlint: allow-nondeterminism   intentional wall-clock/RNG seam
    # spotlint: allow-shared-state     sanctioned shared-state mechanism
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.devtools.names import ImportEdge, ModuleNames, follow_reexports
from repro.devtools.rules import ModuleContext

__all__ = [
    "ANNOT_DETERMINISTIC",
    "ANNOT_DETERMINISTIC_FILE",
    "ANNOT_ALLOW_NONDET",
    "ANNOT_ALLOW_SHARED",
    "CallSite",
    "RngCall",
    "GlobalAccess",
    "UnorderedIter",
    "PmapDispatch",
    "FunctionFacts",
    "ModuleFacts",
    "Project",
    "extract_module_facts",
]

ANNOT_DETERMINISTIC = "deterministic"
ANNOT_DETERMINISTIC_FILE = "deterministic-file"
ANNOT_ALLOW_NONDET = "allow-nondeterminism"
ANNOT_ALLOW_SHARED = "allow-shared-state"

_KNOWN_ANNOTATIONS = frozenset(
    {
        ANNOT_DETERMINISTIC,
        ANNOT_DETERMINISTIC_FILE,
        ANNOT_ALLOW_NONDET,
        ANNOT_ALLOW_SHARED,
    }
)

_MUTABLE_FACTORIES = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict"}
)
_MUTATOR_METHODS = frozenset(
    {"append", "extend", "insert", "add", "update", "setdefault", "pop",
     "popitem", "clear", "remove", "discard", "appendleft", "extendleft"}
)
_UNORDERED_DIR_CALLS = frozenset({"os.listdir", "os.scandir"})
_UNORDERED_METHODS = frozenset({"iterdir", "glob", "rglob"})
_ITER_CONSUMERS = frozenset({"list", "tuple", "enumerate", "join"})

_PMAP_TARGETS = frozenset({"repro.parallel.pmap"})
_DEFAULT_RNG = "numpy.random.default_rng"


@dataclass(frozen=True)
class CallSite:
    """One call resolved to a dotted target (project or external)."""

    target: str
    line: int
    col: int


@dataclass(frozen=True)
class RngCall:
    """One ``numpy.random.default_rng(...)`` call and its seed shape."""

    line: int
    col: int
    seeded: bool
    literal_seed: bool
    uses_derive_seed: bool


@dataclass(frozen=True)
class GlobalAccess:
    """A read or write of a module-level mutable global inside a function."""

    name: str
    line: int
    col: int
    kind: str  # "read" | "rebind" | "mutate"


@dataclass(frozen=True)
class UnorderedIter:
    """Iteration over an unordered collection without ``sorted(...)``."""

    line: int
    col: int
    desc: str


@dataclass(frozen=True)
class PmapDispatch:
    """One ``repro.parallel.pmap(worker, ...)`` call site."""

    worker: str | None  # dotted ref, or None when unresolvable
    line: int
    col: int
    detail: str


@dataclass(frozen=True)
class FunctionFacts:
    """Everything the whole-program passes need to know about one function."""

    qualname: str
    line: int
    col: int
    calls: tuple[CallSite, ...]
    rng_calls: tuple[RngCall, ...]
    global_accesses: tuple[GlobalAccess, ...]
    unordered_iters: tuple[UnorderedIter, ...]
    annotations: tuple[str, ...]
    allow_lines: tuple[int, ...]  # lines annotated allow-nondeterminism


@dataclass(frozen=True)
class ModuleFacts:
    """The per-file extraction result (JSON-serializable, cacheable)."""

    path: str
    module: str | None
    imports: tuple[ImportEdge, ...]
    functions: tuple[FunctionFacts, ...]
    mutable_globals: tuple[str, ...]
    export_aliases: dict[str, str] = field(default_factory=dict)
    annotations: tuple[str, ...] = ()
    pmap_dispatches: tuple[PmapDispatch, ...] = ()

    # ------------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "module": self.module,
            "imports": [[e.target, e.line, e.typing_only] for e in self.imports],
            "functions": [
                {
                    "qualname": f.qualname,
                    "line": f.line,
                    "col": f.col,
                    "calls": [[c.target, c.line, c.col] for c in f.calls],
                    "rng_calls": [
                        [r.line, r.col, r.seeded, r.literal_seed,
                         r.uses_derive_seed]
                        for r in f.rng_calls
                    ],
                    "global_accesses": [
                        [g.name, g.line, g.col, g.kind]
                        for g in f.global_accesses
                    ],
                    "unordered_iters": [
                        [u.line, u.col, u.desc] for u in f.unordered_iters
                    ],
                    "annotations": list(f.annotations),
                    "allow_lines": list(f.allow_lines),
                }
                for f in self.functions
            ],
            "mutable_globals": list(self.mutable_globals),
            "export_aliases": dict(self.export_aliases),
            "annotations": list(self.annotations),
            "pmap_dispatches": [
                [d.worker, d.line, d.col, d.detail] for d in self.pmap_dispatches
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleFacts":
        return cls(
            path=data["path"],
            module=data["module"],
            imports=tuple(ImportEdge(t, ln, ty) for t, ln, ty in data["imports"]),
            functions=tuple(
                FunctionFacts(
                    qualname=f["qualname"],
                    line=f["line"],
                    col=f["col"],
                    calls=tuple(CallSite(t, ln, c) for t, ln, c in f["calls"]),
                    rng_calls=tuple(
                        RngCall(ln, c, s, lit, d) for ln, c, s, lit, d in f["rng_calls"]
                    ),
                    global_accesses=tuple(
                        GlobalAccess(n, ln, c, k)
                        for n, ln, c, k in f["global_accesses"]
                    ),
                    unordered_iters=tuple(
                        UnorderedIter(ln, c, d) for ln, c, d in f["unordered_iters"]
                    ),
                    annotations=tuple(f["annotations"]),
                    allow_lines=tuple(f["allow_lines"]),
                )
                for f in data["functions"]
            ),
            mutable_globals=tuple(data["mutable_globals"]),
            export_aliases=dict(data["export_aliases"]),
            annotations=tuple(data["annotations"]),
            pmap_dispatches=tuple(
                PmapDispatch(w, ln, c, d) for w, ln, c, d in data["pmap_dispatches"]
            ),
        )


# --------------------------------------------------------------------------
# Comment annotations
# --------------------------------------------------------------------------


def _def_annotations(node: ast.AST, annot: dict[int, set[str]]) -> set[str]:
    """Annotations attached to a ``def``: its line or the line above."""
    lineno = getattr(node, "lineno", 0)
    return annot.get(lineno, set()) | annot.get(lineno - 1, set())


# --------------------------------------------------------------------------
# Function body analysis
# --------------------------------------------------------------------------


def _is_setish(node: ast.expr, resolver) -> str | None:
    """Describe ``node`` if its iteration order is nondeterministic."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set literal"
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"{func.id}(...)"
        resolved = resolver(func)
        if resolved in _UNORDERED_DIR_CALLS:
            return f"{resolved}(...)"
        if isinstance(func, ast.Attribute) and func.attr in _UNORDERED_METHODS:
            return f".{func.attr}(...)"
    return None


def _analyze_function(
    fn: ast.AST,
    *,
    qualname: str,
    names: ModuleNames,
    locals_: set[str],
    mutable_globals: set[str],
    class_name: str | None,
    annot: dict[int, set[str]],
) -> tuple[FunctionFacts, list[PmapDispatch]]:
    declared_global: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)

    def resolver(func: ast.expr) -> str | None:
        return names.resolve(func, locals_, class_name)

    calls: list[CallSite] = []
    rng_calls: list[RngCall] = []
    accesses: list[GlobalAccess] = []
    unordered: list[UnorderedIter] = []
    dispatches: list[PmapDispatch] = []
    write_sites: set[tuple[str, int]] = set()

    def resolve_worker(arg: ast.expr) -> tuple[str | None, str]:
        if isinstance(arg, ast.Lambda):
            return None, "lambda is not a module-level function"
        if isinstance(arg, ast.Call):
            target = resolver(arg.func)
            if target == "functools.partial" and arg.args:
                return resolve_worker(arg.args[0])
            return None, "callable built by a call expression"
        if isinstance(arg, (ast.Name, ast.Attribute)):
            target = resolver(arg)
            if target is not None:
                return target, ""
            if isinstance(arg, ast.Name) and arg.id in locals_:
                return None, f"local name `{arg.id}` is not statically resolvable"
            return None, "callable reference is not statically resolvable"
        return None, "callable expression is not statically resolvable"

    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            target = resolver(node.func)
            if target is not None:
                calls.append(CallSite(target, node.lineno, node.col_offset))
                if target == _DEFAULT_RNG:
                    # A literal None seed draws OS entropy, exactly like
                    # no argument at all: default_rng(None) is unseeded.
                    seeded = any(
                        not (
                            isinstance(arg, ast.Constant)
                            and arg.value is None
                        )
                        for arg in list(node.args)
                        + [kw.value for kw in node.keywords]
                    )
                    literal = (
                        len(node.args) == 1
                        and not node.keywords
                        and isinstance(node.args[0], ast.Constant)
                    )
                    uses_derive = any(
                        isinstance(sub, ast.Call)
                        and resolver(sub.func) is not None
                        and resolver(sub.func).endswith("derive_seed")
                        for arg in list(node.args)
                        + [kw.value for kw in node.keywords]
                        for sub in ast.walk(arg)
                    )
                    rng_calls.append(
                        RngCall(
                            node.lineno, node.col_offset, seeded, literal,
                            uses_derive,
                        )
                    )
                if target in _PMAP_TARGETS:
                    if node.args:
                        worker, detail = resolve_worker(node.args[0])
                    else:
                        worker, detail = None, "no positional worker argument"
                    dispatches.append(
                        PmapDispatch(worker, node.lineno, node.col_offset, detail)
                    )
            # Mutation method on a module-level mutable global.
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in mutable_globals
                and func.value.id not in locals_
            ):
                accesses.append(
                    GlobalAccess(
                        func.value.id, node.lineno, node.col_offset, "mutate"
                    )
                )
                write_sites.add((func.value.id, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    accesses.append(
                        GlobalAccess(
                            target.id, node.lineno, node.col_offset, "rebind"
                        )
                    )
                    write_sites.add((target.id, node.lineno))
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in mutable_globals
                    and target.value.id not in locals_
                ):
                    accesses.append(
                        GlobalAccess(
                            target.value.id, node.lineno, node.col_offset,
                            "mutate",
                        )
                    )
                    write_sites.add((target.value.id, node.lineno))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in mutable_globals
                    and target.value.id not in locals_
                ):
                    accesses.append(
                        GlobalAccess(
                            target.value.id, node.lineno, node.col_offset,
                            "mutate",
                        )
                    )
                    write_sites.add((target.value.id, node.lineno))

        iter_exprs: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_exprs.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iter_exprs.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call):
            func = node.func
            name = (
                func.attr
                if isinstance(func, ast.Attribute)
                else getattr(func, "id", "")
            )
            if name in _ITER_CONSUMERS and node.args:
                iter_exprs.append(node.args[0])
        for expr in iter_exprs:
            desc = _is_setish(expr, resolver)
            if desc is not None:
                unordered.append(
                    UnorderedIter(expr.lineno, expr.col_offset, desc)
                )

    # Reads of module-level mutable globals (skip lines already counted as
    # writes for that name, so a mutation is not double-reported).
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id in mutable_globals
            and node.id not in locals_
            and (node.id, node.lineno) not in write_sites
        ):
            accesses.append(
                GlobalAccess(node.id, node.lineno, node.col_offset, "read")
            )

    fn_annots = _def_annotations(fn, annot)
    allow_lines = tuple(
        sorted(
            line
            for line, tokens in annot.items()
            if ANNOT_ALLOW_NONDET in tokens
        )
    )
    return (
        FunctionFacts(
            qualname=qualname,
            line=getattr(fn, "lineno", 1),
            col=getattr(fn, "col_offset", 0),
            calls=tuple(calls),
            rng_calls=tuple(rng_calls),
            global_accesses=tuple(accesses),
            unordered_iters=tuple(unordered),
            annotations=tuple(sorted(fn_annots)),
            allow_lines=allow_lines,
        ),
        dispatches,
    )


# --------------------------------------------------------------------------
# Module extraction
# --------------------------------------------------------------------------


def extract_module_facts(ctx: ModuleContext) -> ModuleFacts:
    """Extract the whole-program facts for one parsed module."""
    module, tree, names = ctx.module, ctx.tree, ctx.names
    annot = {
        line: set(words & _KNOWN_ANNOTATIONS)
        for line, words in ctx.annotations.items()
        if words & _KNOWN_ANNOTATIONS
    }

    mutable_globals: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            mutable = False
            if isinstance(
                value,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp),
            ):
                mutable = True
            elif isinstance(value, ast.Call):
                name = (
                    value.func.attr
                    if isinstance(value.func, ast.Attribute)
                    else getattr(value.func, "id", "")
                )
                mutable = name in _MUTABLE_FACTORIES
            for target in targets:
                if isinstance(target, ast.Name) and mutable:
                    mutable_globals.add(target.id)

    module_annots: set[str] = set()
    for tokens in annot.values():
        if ANNOT_DETERMINISTIC_FILE in tokens:
            module_annots.add(ANNOT_DETERMINISTIC_FILE)

    functions: list[FunctionFacts] = []
    dispatches: list[PmapDispatch] = []
    for fn, qualname, class_name, locals_ in names.functions:
        facts, fn_dispatches = _analyze_function(
            fn,
            qualname=qualname,
            names=names,
            locals_=locals_,
            mutable_globals=mutable_globals,
            class_name=class_name,
            annot=annot,
        )
        functions.append(facts)
        dispatches.extend(fn_dispatches)

    return ModuleFacts(
        path=str(ctx.path),
        module=module,
        imports=names.imports.edges,
        functions=tuple(functions),
        mutable_globals=tuple(sorted(mutable_globals)),
        export_aliases=names.imports.exports,
        annotations=tuple(sorted(module_annots)),
        pmap_dispatches=tuple(dispatches),
    )


# --------------------------------------------------------------------------
# Project = linked set of modules
# --------------------------------------------------------------------------


class Project:
    """A linked collection of :class:`ModuleFacts` with symbol resolution."""

    def __init__(self, modules: Iterable[ModuleFacts]) -> None:
        self.modules: list[ModuleFacts] = sorted(
            modules, key=lambda m: m.path
        )
        self.by_module: dict[str, ModuleFacts] = {
            m.module: m for m in self.modules if m.module
        }
        # Global function table: "module.qualname" -> (ModuleFacts, FunctionFacts)
        self.symbols: dict[str, tuple[ModuleFacts, FunctionFacts]] = {}
        # Re-export chains: "module.local" -> "target_module.attr"
        self.reexports: dict[str, str] = {}
        for mod in self.modules:
            if not mod.module:
                continue
            for fn in mod.functions:
                self.symbols[f"{mod.module}.{fn.qualname}"] = (mod, fn)
            for local, dotted in mod.export_aliases.items():
                self.reexports[f"{mod.module}.{local}"] = dotted

    def resolve_function(self, dotted: str) -> str | None:
        """Resolve a dotted ref to a project function id, if it is one."""
        resolved = follow_reexports(self.reexports, dotted)
        if resolved in self.symbols:
            return resolved
        return None

    def call_edges(self) -> dict[str, list[tuple[str, CallSite]]]:
        """Caller function id -> resolved project callees (with sites)."""
        edges: dict[str, list[tuple[str, CallSite]]] = {}
        for mod in self.modules:
            if not mod.module:
                continue
            for fn in mod.functions:
                fid = f"{mod.module}.{fn.qualname}"
                targets: list[tuple[str, CallSite]] = []
                for call in fn.calls:
                    callee = self.resolve_function(call.target)
                    if callee is not None and callee != fid:
                        targets.append((callee, call))
                edges[fid] = targets
        return edges

    def reverse_edges(self) -> dict[str, list[str]]:
        """Callee function id -> sorted unique caller ids."""
        reverse: dict[str, set[str]] = {}
        for caller, callees in self.call_edges().items():
            for callee, _site in callees:
                reverse.setdefault(callee, set()).add(caller)
        return {k: sorted(v) for k, v in reverse.items()}
