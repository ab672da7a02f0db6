"""Parallel-purity analysis for ``repro.parallel.pmap`` workers (SW120–SW123).

``pmap`` fans work out to ``ProcessPoolExecutor`` workers (or falls back
to serial execution for ``n_jobs=1``), so a worker callable must be:

- **picklable** — a module-level function, not a lambda or local closure;
- **pure w.r.t. module state** — no reads of mutable globals that any
  project code mutates (worker processes see a stale copy; the serial
  fallback sees the live one — silent divergence), and no writes at all
  (they are lost when the worker process exits);
- **seed-disciplined** — any ``default_rng`` it constructs must take a
  seed derived via ``repro.parallel.derive_seed`` so results are
  reproducible *and* streams are independent across workers.

Every callable passed to ``pmap`` is resolved statically (see
:mod:`repro.devtools.graph.facts`), then the checks run over the worker
and everything it transitively calls.  The sanctioned shared-state
mechanism (``repro.parallel.shared_setup``'s per-process cache) is
annotated ``# spotlint: allow-shared-state``, which both silences the
function and stops traversal into it.

Rules
-----
- ``SW120`` — worker (or a callee) reads a module-level mutable global
  that project code mutates.
- ``SW121`` — worker (or a callee) writes module/global state.
- ``SW122`` — worker RNG is unseeded or literal-seeded instead of
  derived via ``derive_seed``.
- ``SW123`` — the callable passed to ``pmap`` cannot be resolved to a
  module-level function.
"""

from __future__ import annotations

from collections import deque

from repro.devtools.graph.facts import (
    ANNOT_ALLOW_SHARED,
    FunctionFacts,
    ModuleFacts,
    Project,
)
from repro.devtools.rules import Finding

__all__ = ["mutated_globals", "purity_findings"]


def mutated_globals(project: Project) -> dict[str, set[str]]:
    """Module name -> mutable globals some function in it writes."""
    written: dict[str, set[str]] = {}
    for mod in project.modules:
        if not mod.module:
            continue
        names = {
            access.name
            for fn in mod.functions
            for access in fn.global_accesses
            if access.kind in ("rebind", "mutate")
        }
        if names:
            written[mod.module] = names
    return written


def _worker_closure(
    project: Project,
    edges: dict[str, list],
    worker_fid: str,
) -> list[str]:
    """The worker and everything it transitively calls, BFS order.

    Functions annotated ``allow-shared-state`` are sanctioned shared-state
    mechanisms: they are excluded and not traversed through.
    """
    closure: list[str] = []
    seen = {worker_fid}
    queue = deque([worker_fid])
    while queue:
        fid = queue.popleft()
        entry = project.symbols.get(fid)
        if entry is None:
            continue
        _mod, fn = entry
        if ANNOT_ALLOW_SHARED in fn.annotations:
            continue
        closure.append(fid)
        for callee, _site in edges.get(fid, []):
            if callee not in seen:
                seen.add(callee)
                queue.append(callee)
    return closure


def _check_member(
    mod: ModuleFacts,
    fn: FunctionFacts,
    fid: str,
    worker: str,
    written: dict[str, set[str]],
    findings: list[Finding],
    reported: set[tuple[str, str, str]],
) -> None:
    module_written = written.get(mod.module or "", set())

    for access in fn.global_accesses:
        if access.kind == "read":
            if access.name not in module_written:
                continue
            key = ("SW120", fid, access.name)
            if key in reported:
                continue
            reported.add(key)
            findings.append(
                Finding(
                    "SW120",
                    mod.path,
                    access.line,
                    access.col,
                    f"pmap worker `{worker}` reaches `{fid}`, which reads "
                    f"module-level mutable global `{access.name}` that "
                    f"project code mutates; worker processes see a stale "
                    f"copy",
                )
            )
        else:
            key = ("SW121", fid, access.name)
            if key in reported:
                continue
            reported.add(key)
            verb = (
                "rebinds" if access.kind == "rebind" else "mutates"
            )
            findings.append(
                Finding(
                    "SW121",
                    mod.path,
                    access.line,
                    access.col,
                    f"pmap worker `{worker}` reaches `{fid}`, which {verb} "
                    f"module-level state `{access.name}`; writes in worker "
                    f"processes are silently lost",
                )
            )

    allowed = set(fn.allow_lines)
    for rng in fn.rng_calls:
        if rng.uses_derive_seed or rng.line in allowed:
            continue
        if rng.seeded and not rng.literal_seed:
            # Seeded from an expression we cannot prove either way —
            # stay silent rather than flag passed-through seeds.
            continue
        shape = (
            "a constant literal seed (identical streams in every worker)"
            if rng.seeded
            else "no seed (irreproducible)"
        )
        key = ("SW122", fid, str(rng.line))
        if key in reported:
            continue
        reported.add(key)
        findings.append(
            Finding(
                "SW122",
                mod.path,
                rng.line,
                rng.col,
                f"pmap worker `{worker}` reaches `{fid}`, which builds "
                f"`default_rng` with {shape}; derive per-task seeds via "
                f"`repro.parallel.derive_seed`",
            )
        )


def purity_findings(project: Project) -> list[Finding]:
    """SW120–SW123 findings for every ``pmap`` dispatch in the project."""
    findings: list[Finding] = []
    edges = project.call_edges()
    written = mutated_globals(project)
    reported: set[tuple[str, str, str]] = set()

    for mod in project.modules:
        for dispatch in mod.pmap_dispatches:
            if dispatch.worker is None:
                findings.append(
                    Finding(
                        "SW123",
                        mod.path,
                        dispatch.line,
                        dispatch.col,
                        f"callable passed to pmap is not a statically "
                        f"resolvable module-level function "
                        f"({dispatch.detail}); workers must be picklable",
                    )
                )
                continue
            worker_fid = project.resolve_function(dispatch.worker)
            if worker_fid is None:
                # Resolved to a dotted name outside the analyzed project
                # (e.g. a third-party callable); nothing to check.
                continue
            for fid in _worker_closure(project, edges, worker_fid):
                member_mod, member_fn = project.symbols[fid]
                _check_member(
                    member_mod,
                    member_fn,
                    fid,
                    worker_fid,
                    written,
                    findings,
                    reported,
                )
    return findings
