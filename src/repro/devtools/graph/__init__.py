"""``spotgraph`` — whole-program static analysis for the reproduction.

Where the lint rules check one file at a time, spotgraph links every
module's facts (:mod:`repro.devtools.graph.facts`) into a project-wide
view and runs three passes that no per-file rule can express:

- **layering** (:mod:`repro.devtools.graph.layers`, SW101–SW103) — the
  declared import-layer map for ``repro`` plus cycle detection;
- **determinism taint** (:mod:`repro.devtools.graph.taint`,
  SW110–SW112) — call paths from deterministic-declared code into wall
  clock / entropy / global-RNG sources;
- **pmap purity** (:mod:`repro.devtools.graph.purity`, SW120–SW123) —
  shared-state and seed-discipline checks on every callable handed to
  ``repro.parallel.pmap``.

The driver (:mod:`repro.devtools.check`, ``spotlint``) runs it next to
the other analyzers; ``spotlint --layers`` prints the layer map.
"""

from __future__ import annotations

from repro.devtools.graph.facts import Project
from repro.devtools.graph.layers import layer_findings, render_layer_map
from repro.devtools.graph.purity import purity_findings
from repro.devtools.graph.taint import taint_findings
from repro.devtools.rules import Finding

__all__ = [
    "GRAPH_RULES",
    "Project",
    "analyze_project",
    "purity_findings",
    "render_layer_map",
    "taint_findings",
]

GRAPH_RULES = {
    "SW101": "import violates the declared layer map",
    "SW102": "runtime import cycle between project modules",
    "SW103": "package missing from the declared layer map",
    "SW110": "deterministic scope reaches a nondeterminism source",
    "SW111": "unseeded default_rng() in deterministic scope",
    "SW112": "unordered-collection iteration in deterministic scope",
    "SW120": "pmap worker reads a mutated module-level global",
    "SW121": "pmap worker writes module/global state",
    "SW122": "pmap worker RNG seed not derived via derive_seed",
    "SW123": "pmap callable is not a resolvable module-level function",
}


def analyze_project(project: Project) -> list[Finding]:
    """The three whole-program passes over a linked project."""
    return [
        *layer_findings(project),
        *taint_findings(project),
        *purity_findings(project),
    ]
