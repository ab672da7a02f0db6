"""Call-graph determinism-taint analysis (SW110–SW112).

The reproduction's core promise is that a simulation run is a pure
function of ``(config, seed)``.  This pass checks it statically:

1. every call site resolved by :mod:`repro.devtools.graph.facts` is
   classified against a catalog of **nondeterminism sources** — wall
   clock reads, OS entropy, the global ``numpy.random``/``random`` state,
   and unseeded ``default_rng()``;
2. taint propagates **backwards** over the project call graph (callers of
   a tainted function become tainted), with path tracking;
3. functions inside the **deterministic scope** — the packages listed in
   :data:`DETERMINISTIC_PREFIXES`, any module annotated
   ``# spotlint: deterministic-file``, or any function annotated
   ``# spotlint: deterministic`` — are reported when they can reach a
   source.

Only the deterministic function *nearest* the source along a call chain
is reported: if ``a`` calls ``b`` calls ``time.time()`` and both are in
scope, fixing ``b`` fixes ``a``, so only ``b`` gets a finding.

Intentional seams (the ``*_ms`` timing fields reported next to results)
are annotated ``# spotlint: allow-nondeterminism`` — on a source call's
line it excuses that call, on a ``def`` it makes the whole function an
accepted seam that neither reports nor propagates taint.

Rules
-----
- ``SW110`` — deterministic scope transitively reaches a nondeterminism
  source (the call path is in the message).
- ``SW111`` — unseeded ``default_rng()`` in deterministic scope.
- ``SW112`` — iteration over an unordered collection (``set``,
  ``os.listdir``, ``Path.iterdir``/``glob``) in deterministic scope.
"""

from __future__ import annotations

from collections import deque

from repro.devtools.graph.facts import (
    ANNOT_ALLOW_NONDET,
    ANNOT_DETERMINISTIC,
    ANNOT_DETERMINISTIC_FILE,
    FunctionFacts,
    ModuleFacts,
    Project,
)
from repro.devtools.rules import _NP_RANDOM_ALLOWED, Finding

__all__ = [
    "DETERMINISTIC_PREFIXES",
    "WALL_CLOCK_FUNCS",
    "ENTROPY_FUNCS",
    "classify_source",
    "is_deterministic_scope",
    "taint_findings",
]

#: Modules whose code is declared deterministic: a run must be a pure
#: function of (config, seed).  cli/experiments/bench drivers and the
#: tracer (whose whole job is wall-clock) are intentionally outside.
DETERMINISTIC_PREFIXES: tuple[str, ...] = (
    "repro.baselines",
    "repro.bench.report",
    "repro.core",
    "repro.devtools.interp",
    "repro.devtools.names",
    "repro.devtools.shape",
    "repro.devtools.specs",
    "repro.devtools.summaries",
    "repro.devtools.units",
    "repro.loadbalancer",
    "repro.markets",
    "repro.monitoring",
    "repro.normal",
    "repro.obs.anomaly",
    "repro.obs.dash",
    "repro.obs.eventreport",
    "repro.obs.events",
    "repro.obs.flightrec",
    "repro.obs.live",
    "repro.obs.metrics",
    "repro.obs.slo",
    "repro.predictors",
    "repro.scenarios",
    "repro.simulator",
    # Redundant with the package prefix above, but listed explicitly:
    # the fluid tier draws no randomness at all and the hybrid driver
    # must stay a pure function of (config, seed) for tier handoffs to
    # be replayable.
    "repro.simulator.fluid",
    "repro.simulator.hybrid",
    "repro.solvers",
    "repro.textfmt",
    "repro.workloads",
)

WALL_CLOCK_FUNCS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

ENTROPY_FUNCS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)

# `random.Random(seed)` builds an explicitly seedable instance; everything
# else on the module (`random.random`, `random.shuffle`, ...) hits the
# hidden global Mersenne Twister state.
_STDLIB_RANDOM_ALLOWED = frozenset({"Random", "seed"})

# Pseudo-source name for an unseeded `default_rng()` call site; it has no
# dotted call target of its own, and SW111 reports it directly when the
# call sits inside the deterministic scope.
_UNSEEDED_RNG = "numpy.random.default_rng (unseeded)"


def classify_source(target: str) -> str | None:
    """Describe why ``target`` is a nondeterminism source, or ``None``."""
    if target in WALL_CLOCK_FUNCS:
        return "wall clock"
    if target in ENTROPY_FUNCS or target.startswith("secrets."):
        return "OS entropy"
    if target.startswith("numpy.random."):
        tail = target.split(".")[-1]
        if tail not in _NP_RANDOM_ALLOWED:
            return "numpy global RNG state"
        return None
    if target.startswith("random."):
        tail = target.split(".", 1)[1]
        if "." not in tail and tail not in _STDLIB_RANDOM_ALLOWED:
            return "stdlib global RNG state"
        if tail == "SystemRandom":
            return "OS entropy"
    return None


def is_deterministic_scope(mod: ModuleFacts, fn: FunctionFacts) -> bool:
    """Whether ``fn`` is declared deterministic (prefix or annotation)."""
    if ANNOT_ALLOW_NONDET in fn.annotations:
        return False
    if ANNOT_DETERMINISTIC in fn.annotations:
        return True
    if ANNOT_DETERMINISTIC_FILE in mod.annotations:
        return True
    module = mod.module or ""
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in DETERMINISTIC_PREFIXES
    )


def _direct_sources(fn: FunctionFacts) -> list[tuple[str, str]]:
    """The nondeterminism sources ``fn`` calls directly: (target, kind)."""
    if ANNOT_ALLOW_NONDET in fn.annotations:
        return []
    allowed = set(fn.allow_lines)
    sources: list[tuple[str, str]] = []
    seen: set[str] = set()
    for call in fn.calls:
        if call.line in allowed:
            continue
        kind = classify_source(call.target)
        if kind is not None and call.target not in seen:
            seen.add(call.target)
            sources.append((call.target, kind))
    for rng in fn.rng_calls:
        if rng.line in allowed or rng.seeded:
            continue
        if _UNSEEDED_RNG not in seen:
            seen.add(_UNSEEDED_RNG)
            sources.append((_UNSEEDED_RNG, "OS entropy seed"))
    return sources


def taint_findings(project: Project) -> list[Finding]:
    """SW110/SW111/SW112 findings over the project call graph."""
    findings: list[Finding] = []

    direct: dict[str, list[tuple[str, str]]] = {}
    scope: dict[str, bool] = {}
    barrier: dict[str, bool] = {}
    location: dict[str, tuple[str, int]] = {}
    for mod in project.modules:
        if not mod.module:
            continue
        for fn in mod.functions:
            fid = f"{mod.module}.{fn.qualname}"
            sources = _direct_sources(fn)
            if sources:
                direct[fid] = sources
            scope[fid] = is_deterministic_scope(mod, fn)
            barrier[fid] = ANNOT_ALLOW_NONDET in fn.annotations
            location[fid] = (mod.path, fn.line)

    # Backward BFS from directly-tainted functions over reverse call
    # edges; next_hop points one step toward the source for each node.
    reverse = project.reverse_edges()
    next_hop: dict[str, str] = {}
    visited: set[str] = set(direct)
    queue = deque(sorted(direct))
    while queue:
        node = queue.popleft()
        for caller in reverse.get(node, []):
            if caller in visited or barrier.get(caller, False):
                continue
            visited.add(caller)
            next_hop[caller] = node
            queue.append(caller)

    for fid in sorted(visited):
        if not scope.get(fid, False):
            continue
        # Walk toward the source; skip this function if a nearer
        # deterministic-scope function will already be reported.
        path = [fid]
        node = fid
        shadowed = False
        while node not in direct:
            node = next_hop[node]
            path.append(node)
            if scope.get(node, False):
                shadowed = True
                break
        if shadowed:
            continue
        sources = direct[node]
        if len(path) == 1:
            # The function is itself a direct source.  An unseeded
            # default_rng() here is already SW111; reporting the same call
            # as a length-1 SW110 chain would duplicate the finding.
            sources = [s for s in sources if s[0] != _UNSEEDED_RNG]
            if not sources:
                continue
        target, kind = sources[0]
        mod_path, line = location[fid]
        chain = " -> ".join(path + [target])
        findings.append(
            Finding(
                "SW110",
                mod_path,
                line,
                0,
                f"deterministic scope reaches nondeterminism source "
                f"`{target}` ({kind}): {chain}; annotate the seam with "
                f"`# spotlint: allow-nondeterminism` if intentional",
            )
        )

    # Direct per-function rules inside the deterministic scope.
    for mod in project.modules:
        if not mod.module:
            continue
        for fn in mod.functions:
            fid = f"{mod.module}.{fn.qualname}"
            if not scope.get(fid, False):
                continue
            allowed = set(fn.allow_lines)
            for rng in fn.rng_calls:
                if rng.seeded or rng.line in allowed:
                    continue
                findings.append(
                    Finding(
                        "SW111",
                        mod.path,
                        rng.line,
                        rng.col,
                        f"unseeded `default_rng()` in deterministic scope "
                        f"`{fid}`; thread a seed (derive_seed) or annotate "
                        f"`# spotlint: allow-nondeterminism`",
                    )
                )
            for it in fn.unordered_iters:
                if it.line in allowed:
                    continue
                findings.append(
                    Finding(
                        "SW112",
                        mod.path,
                        it.line,
                        it.col,
                        f"iteration over unordered {it.desc} in "
                        f"deterministic scope `{fid}`; wrap in `sorted(...)` "
                        f"or annotate `# spotlint: allow-nondeterminism`",
                    )
                )
    return findings
