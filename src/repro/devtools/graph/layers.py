"""Declared import layering for ``repro`` + cycle detection (SW101–SW103).

The layer map is the repo's architecture, written down and enforced:

- **foundation** (``devtools``, ``normal``, ``obs``, ``parallel``,
  ``textfmt``, ``units``) may be imported from anywhere but imports
  nothing of ``repro`` above itself — observability, tooling, the normal
  quantile and dimensional constants must never pull in domain code;
- **leaves** (``markets``, ``solvers``, ``workloads``) import no other
  domain package: solver code must never see the simulator;
- the stack above them is a DAG: ``predictors``/``monitoring``/
  ``loadbalancer`` → ``core`` → ``simulator``/``baselines`` →
  ``analysis`` → ``experiments``/``bench`` → ``cli``;
- **roots** (``cli``, ``experiments``, ``bench``, ``__main__``) are the
  only modules allowed to reach down into everything.

``TYPE_CHECKING``-guarded imports are erased at runtime and therefore
exempt from both the layering and the cycle check (the load balancer's
annotation-only view of ``repro.simulator`` is the sanctioned example).

Rules
-----
- ``SW101`` — import that violates the declared layer map.
- ``SW102`` — runtime import cycle between project modules.
- ``SW103`` — module/package absent from the declared layer map.
"""

from __future__ import annotations

from repro.devtools.graph.facts import ModuleFacts, Project
from repro.devtools.rules import Finding

__all__ = [
    "FOUNDATION",
    "LAYER_ALLOWED",
    "LAYER_GROUPS",
    "segment_of",
    "layer_findings",
    "package_graph",
    "render_layer_map",
]

# Packages importable from anywhere, importing nothing of repro above
# themselves (foundation -> foundation is allowed; cycles still flagged).
FOUNDATION = frozenset(
    {"devtools", "normal", "obs", "parallel", "textfmt", "units"}
)

_LEAVES = frozenset({"markets", "solvers", "workloads"})
_MID = {
    "predictors": frozenset({"workloads"}),
    "monitoring": frozenset({"markets"}),
    "loadbalancer": frozenset(),
    "core": frozenset({"markets", "monitoring", "predictors", "solvers",
                       "workloads"}),
    "simulator": frozenset({"core", "loadbalancer", "markets", "monitoring",
                            "predictors", "solvers", "workloads"}),
    "baselines": frozenset({"core", "markets", "predictors", "workloads"}),
    "analysis": frozenset({"core", "markets", "simulator", "workloads"}),
    # The scenario DSL composes markets/workloads/simulator into checked
    # episodes — it sits beside analysis, below the roots.
    "scenarios": frozenset({"baselines", "core", "loadbalancer", "markets",
                            "monitoring", "predictors", "simulator",
                            "solvers", "workloads"}),
}
_NON_ROOT = (
    frozenset(_MID) | _LEAVES | frozenset({"analysis", "baselines"})
)

#: package segment -> the repro segments it may import (foundation and the
#: importer's own segment are always allowed and not listed).
LAYER_ALLOWED: dict[str, frozenset[str]] = {
    **{name: frozenset() for name in FOUNDATION},
    **{name: frozenset() for name in _LEAVES},
    **_MID,
    "experiments": _NON_ROOT,
    "bench": _NON_ROOT | frozenset({"experiments"}),
    "cli": _NON_ROOT | frozenset({"experiments", "bench"}),
    "__main__": frozenset({"cli"}),
}

#: Display grouping for the ASCII diagram (top may import downward only).
LAYER_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("roots", ("__main__", "cli", "bench", "experiments")),
    ("reporting", ("analysis", "scenarios")),
    ("simulation", ("simulator", "baselines")),
    ("control", ("core",)),
    ("components", ("loadbalancer", "monitoring", "predictors")),
    ("leaves", ("markets", "solvers", "workloads")),
    ("foundation", ("devtools", "normal", "obs", "parallel", "textfmt",
                    "units")),
)


def segment_of(module: str) -> str:
    """The layer segment of a dotted module (``""`` for bare ``repro``)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) == 1:
        return ""
    return parts[1]


def _runtime_repro_edges(mod: ModuleFacts) -> list:
    return [
        edge
        for edge in mod.imports
        if not edge.typing_only
        and (edge.target == "repro" or edge.target.startswith("repro."))
    ]


def layer_findings(project: Project) -> list[Finding]:
    """SW101/SW102/SW103 findings over the project's import graph."""
    findings: list[Finding] = []
    known = set(LAYER_ALLOWED)

    undeclared_reported: set[str] = set()
    for mod in project.modules:
        if not mod.module or not mod.module.startswith("repro"):
            continue
        sseg = segment_of(mod.module)
        if sseg == "":
            continue
        if sseg not in known:
            if sseg not in undeclared_reported:
                undeclared_reported.add(sseg)
                findings.append(
                    Finding(
                        "SW103",
                        mod.path,
                        1,
                        0,
                        f"package `repro.{sseg}` is not in the declared "
                        "layer map; add it to "
                        "repro.devtools.graph.layers.LAYER_ALLOWED",
                    )
                )
            continue
        for edge in _runtime_repro_edges(mod):
            tseg = segment_of(edge.target)
            if tseg == "" or tseg == sseg:
                continue
            if tseg not in known:
                findings.append(
                    Finding(
                        "SW103",
                        mod.path,
                        edge.line,
                        0,
                        f"`{mod.module}` imports `{edge.target}` whose "
                        f"package `repro.{tseg}` is not in the declared "
                        "layer map",
                    )
                )
                continue
            if tseg in FOUNDATION:
                continue
            if tseg not in LAYER_ALLOWED[sseg]:
                allowed = sorted(LAYER_ALLOWED[sseg] | FOUNDATION)
                findings.append(
                    Finding(
                        "SW101",
                        mod.path,
                        edge.line,
                        0,
                        f"layering violation: `{mod.module}` (layer "
                        f"`{sseg}`) imports `{edge.target}` (layer "
                        f"`{tseg}`); `{sseg}` may import only "
                        f"{{{', '.join(allowed)}}}",
                    )
                )

    findings.extend(_cycle_findings(project))
    return findings


def _module_import_graph(project: Project) -> dict[str, list[tuple[str, int]]]:
    """Module -> (imported project module, import line), runtime edges only."""
    graph: dict[str, list[tuple[str, int]]] = {}
    names = set(project.by_module)
    for mod in project.modules:
        if not mod.module:
            continue
        targets: list[tuple[str, int]] = []
        for edge in _runtime_repro_edges(mod):
            target = edge.target
            # Resolve to the longest known project-module prefix, so an
            # import of `repro.core.mpo.solve_mpo` maps onto `repro.core.mpo`.
            while target and target not in names:
                if "." not in target:
                    target = ""
                    break
                target = target.rsplit(".", 1)[0]
            if target and target != mod.module:
                targets.append((target, edge.line))
        graph[mod.module] = targets
    return graph


def _cycle_findings(project: Project) -> list[Finding]:
    """One SW102 finding per strongly connected component of size > 1."""
    graph = _module_import_graph(project)
    order: list[str] = []
    visited: set[str] = set()

    # Iterative DFS post-order, then Kosaraju on the transposed graph.
    for start in sorted(graph):
        if start in visited:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        visited.add(start)
        while stack:
            node, idx = stack.pop()
            neighbors = [t for t, _line in graph.get(node, [])]
            if idx < len(neighbors):
                stack.append((node, idx + 1))
                nxt = neighbors[idx]
                if nxt not in visited and nxt in graph:
                    visited.add(nxt)
                    stack.append((nxt, 0))
            else:
                order.append(node)

    transposed: dict[str, set[str]] = {name: set() for name in graph}
    for src, targets in graph.items():
        for target, _line in targets:
            if target in transposed:
                transposed[target].add(src)

    assigned: set[str] = set()
    components: list[list[str]] = []
    for node in reversed(order):
        if node in assigned:
            continue
        component: list[str] = []
        stack2 = [node]
        assigned.add(node)
        while stack2:
            cur = stack2.pop()
            component.append(cur)
            for prev in sorted(transposed.get(cur, ())):
                if prev not in assigned:
                    assigned.add(prev)
                    stack2.append(prev)
        components.append(component)

    findings: list[Finding] = []
    for component in components:
        if len(component) < 2:
            continue
        members = sorted(component)
        anchor_mod = project.by_module[members[0]]
        member_set = set(members)
        line = next(
            (
                edge_line
                for target, edge_line in graph.get(members[0], [])
                if target in member_set
            ),
            1,
        )
        findings.append(
            Finding(
                "SW102",
                anchor_mod.path,
                line,
                0,
                "import cycle between project modules: "
                + " -> ".join(members + [members[0]]),
            )
        )
    return findings


def package_graph(project: Project) -> dict[str, set[str]]:
    """Actual cross-segment package dependencies (runtime edges)."""
    deps: dict[str, set[str]] = {}
    for mod in project.modules:
        if not mod.module:
            continue
        sseg = segment_of(mod.module)
        if not sseg:
            continue
        for edge in _runtime_repro_edges(mod):
            tseg = segment_of(edge.target)
            if tseg and tseg != sseg:
                deps.setdefault(sseg, set()).add(tseg)
    return deps


def render_layer_map(project: Project | None = None) -> str:
    """ASCII module-dependency diagram: declared layers + actual deps."""
    lines = [
        "repro package layering (imports may only point downward)",
        "",
    ]
    width = max(len(name) for name, _members in LAYER_GROUPS)
    for name, members in LAYER_GROUPS:
        lines.append(f"  {name.ljust(width)}  {'  '.join(members)}")
    lines.append("")
    lines.append(
        "  foundation is importable from every layer; TYPE_CHECKING-only"
    )
    lines.append("  imports are exempt (erased at runtime).")
    if project is not None:
        deps = package_graph(project)
        if deps:
            lines.append("")
            lines.append("observed package dependencies:")
            for seg in sorted(deps):
                lines.append(f"  {seg} -> {', '.join(sorted(deps[seg]))}")
    return "\n".join(lines)
