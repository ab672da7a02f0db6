"""Outside-in per-layer time ledger for the end-to-end benchmark.

The ledger times each layer of the system from outside: it replaces the
layer's public entry points with timing wrappers for the length of one
traced run and restores them afterwards.  Nothing in ``src/`` changes.

A layer's **self time** is the time inside its wrappers minus the time
inside wrappers nested below them.  Every wrapper costs a little, part of
it inside its own timed interval and part of it in the caller's, so the
ledger calibrates both parts on an empty method and subtracts them:
``c_in`` from the wrapped call, ``c_out`` from its caller.  The counting
shims around the observability accessors are calibrated the same way and
their cost taken from the layer that called them.  The removed cost is
its own row, ``trace.self_s``; with ``unattributed`` (time outside every
wrapper) the rows sum to the run's wall time by construction.

Whether the calibration is right is a measurement, not an identity: the
traced wall time less ``trace.self_s`` should be the untraced wall time.
:func:`residual` gives the difference, the tracing cost the calibration
missed, which the harness reports and flags above :data:`RESIDUAL_LIMIT`.

Coarse layers also record one span per call into a private
:class:`repro.obs.tracer.Tracer` (exported as ``spotweb-trace/1``);
per-request layers are only aggregated, because a span per request would
cost more than the request.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Layer -> entry points, as ``(module, "Class.attr")`` or ``(module,
#: "function")``.  ``Class.*`` means every public method the class itself
#: defines, ``Class.prefix*`` those starting with the prefix, and ``Base+``
#: ``predict``/``observe`` of a predictor base and every subclass that
#: defines them.  Module-level functions are rebound in every loaded
#: ``repro`` module that imported them.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "core.controller": (("repro.core.controller", "SpotWebController.step"),),
    "predictors": (
        ("repro.predictors.base", "WorkloadPredictor+"),
        ("repro.predictors.price", "PricePredictor+"),
        ("repro.predictors.failure", "FailurePredictor+"),
    ),
    "core.mpo": (("repro.core.mpo", "MPOOptimizer.optimize"),),
    "solvers": (("repro.solvers.qp", "ADMMCore.solve"),),
    "core.discretize": (
        ("repro.core.portfolio", "Allocation.counts"),
        ("repro.core.discretize", "refine_counts"),
    ),
    "baselines": (("repro.baselines.exosphere", "ExoSphereLoopPolicy.decide"),),
    "simulator.runner": (("repro.simulator.runner", "CostSimulator.run"),),
    "markets.revocation": (
        ("repro.markets.revocation", "CorrelatedRevocationSampler.sample"),
    ),
    "markets.cloud": (("repro.markets.cloud", "TransientCloud.*"),),
    "monitoring": (("repro.monitoring", "MonitoringHub.*"),),
    "simulator.system": (("repro.simulator.system", "SpotWebSystem.run"),),
    "simulator.cluster": (("repro.simulator.cluster", "ClusterSimulation._arrival"),),
    "simulator.des": (
        ("repro.simulator.des", "Simulator.run_until"),
        ("repro.simulator.des", "Simulator.advance"),
    ),
    "loadbalancer": (
        ("repro.loadbalancer.vanilla", "VanillaLoadBalancer.dispatch"),
        ("repro.loadbalancer.vanilla", "VanillaLoadBalancer.on_warning"),
        ("repro.loadbalancer.transiency", "TransiencyAwareLoadBalancer.dispatch"),
        ("repro.loadbalancer.transiency", "TransiencyAwareLoadBalancer.on_warning"),
    ),
    "simulator.server": (
        ("repro.simulator.server", "SimServer.submit"),
        ("repro.simulator.server", "SimServer._complete"),
    ),
    "simulator.metrics": (("repro.simulator.metrics", "LatencyRecorder.record_*"),),
    "simulator.fluid": (
        ("repro.simulator.fluid", "FluidEngine.sync"),
        ("repro.simulator.fluid", "FluidEngine.step"),
    ),
    "simulator.hybrid": (
        ("repro.simulator.hybrid", "HybridClusterSimulation.run"),
        ("repro.simulator.hybrid", "materialize_fleet"),
        ("repro.simulator.hybrid", "absorb_fleet"),
    ),
}

#: Layers called once per request: aggregated only, no span per call.
PER_REQUEST = frozenset(
    {"simulator.cluster", "loadbalancer", "simulator.server", "simulator.metrics"}
)

#: Which end-to-end metric each layer should move, and on which workloads.
#: ``setup_s`` moves with import time on every workload.
LAYER_MOVES: dict[str, dict[str, tuple[str, ...]]] = {
    **{
        layer: {"metrics": ("wall_s",), "workloads": ("costsim_fig6b", "costsim_vod")}
        for layer in (
            "solvers",
            "core.mpo",
            "predictors",
            "core.controller",
            "core.discretize",
            "markets.revocation",
            "simulator.runner",
            "baselines",
        )
    },
    "simulator.cluster": {"metrics": ("wall_s",), "workloads": ("fig4a_lb",)},
    **{
        layer: {"metrics": ("wall_s",), "workloads": ("fig4a_lb", "closed_loop")}
        for layer in ("loadbalancer", "simulator.server", "simulator.des")
    },
    "simulator.metrics": {
        "metrics": ("wall_s", "peak_rss_mb"),
        "workloads": ("fig4a_lb", "closed_loop"),
    },
    "simulator.fluid": {"metrics": ("wall_s",), "workloads": ("fluid_500k", "fig4a_lb")},
    "simulator.hybrid": {"metrics": ("wall_s",), "workloads": ("fig4a_lb", "fluid_500k")},
    **{
        layer: {"metrics": ("wall_s",), "workloads": ("closed_loop",)}
        for layer in ("markets.cloud", "monitoring", "simulator.system")
    },
}

#: The observability accessors whose calls the traced run counts.
OBS_ACCESSORS = (
    ("repro.obs.tracer", "get_tracer"),
    ("repro.obs.events", "get_events"),
    ("repro.obs.live", "get_bus"),
    ("repro.obs.metrics", "get_metrics"),
)


@dataclass
class Entry:
    """One wrapped entry point and its accumulators."""

    layer: str
    name: str
    span: bool
    #: optional ``before(args) -> token`` / ``after(token, args, result)``
    before: Callable | None = None
    after: Callable | None = None
    self_s: float = 0.0
    calls: int = 0
    #: calls that returned ``True`` (accept ratios of dispatch/submit)
    accepted: int = 0

    @property
    def aggregate_only(self) -> bool:
        """No span and no hooks: the cheapest wrapper kind."""
        return not self.span and self.before is None and self.after is None

    def reset(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.accepted = 0


@dataclass
class Costs:
    """Calibrated wrapper cost in seconds: inside the timed call, and outside."""

    c_in: float = 0.0
    c_out: float = 0.0

    @property
    def total(self) -> float:
        return self.c_in + self.c_out


class Ledger:
    """Self-time accounting over nested timing wrappers.

    ``clock`` is injectable so the folding can be tested with a fake one;
    ``plain``/``spanned`` are the calibrated costs of the two wrapper kinds
    and ``shim_s`` that of one counting-shim call.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        tracer: Any = None,
        plain: Costs | None = None,
        spanned: Costs | None = None,
        shim_s: float = 0.0,
    ) -> None:
        self.clock = clock
        self.tracer = tracer
        self.plain = plain or Costs()
        self.spanned = spanned or Costs()
        self.shim_s = shim_s
        self.entries: list[Entry] = []
        #: calls of each counting shim
        self.shim_calls: dict[str, int] = {}
        # The root frame collects top-level wrapped time (plus c_out).
        self._stack: list[list[float]] = [[0.0]]

    # -------------------------------------------------------------- wrapping
    def wrap(self, entry: Entry, fn: Callable) -> Callable:
        """A wrapper around ``fn`` that books its time to ``entry``."""
        self.entries.append(entry)
        clock, stack = self.clock, self._stack
        if entry.aggregate_only:
            c_in, c_out = self.plain.c_in, self.plain.c_out

            def plain(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    dur = t1 - t0
                    entry.self_s += dur - frame[0] - c_in
                    entry.calls += 1
                    stack[-1][0] += dur + c_out
                if result is True:
                    entry.accepted += 1
                return result

            return plain

        c_in, c_out = self.spanned.c_in, self.spanned.c_out
        tracer = self.tracer if entry.span else None
        before, after = entry.before, entry.after

        def spanned(*args, **kwargs):
            token = before(args) if before is not None else None
            span = tracer.span(entry.layer, fn=entry.name) if tracer is not None else None
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                if span is not None:
                    span.__exit__(None, None, None)
                dur = t1 - t0
                entry.self_s += dur - frame[0] - c_in
                entry.calls += 1
                stack[-1][0] += dur + c_out
            if result is True:
                entry.accepted += 1
            if after is not None:
                after(token, args, result)
            return result

        return spanned

    def counting_shim(self, fn: Callable[[], Any], name: str) -> Callable[[], Any]:
        """``fn`` counted under ``name``; its calibrated cost is taken from
        the calling layer (as if it were time nested below it)."""
        self.shim_calls[name] = 0
        counts, stack, cost = self.shim_calls, self._stack, self.shim_s

        def shim():
            counts[name] += 1
            stack[-1][0] += cost
            return fn()

        return shim

    # ------------------------------------------------------------- results
    def reset(self) -> None:
        """Zero every accumulator (e.g. after building a run's inputs)."""
        for entry in self.entries:
            entry.reset()
        for name in self.shim_calls:
            self.shim_calls[name] = 0
        self._stack[:] = [[0.0]]
        if self.tracer is not None:
            self.tracer.clear()

    @property
    def wrapped_s(self) -> float:
        """Top-level wrapped time, including the callers' share of overhead."""
        return self._stack[0][0]

    def overhead_s(self) -> float:
        """Calibrated wrapper and shim cost removed from the layers' self times."""
        wrappers = sum(
            e.calls * (self.plain if e.aggregate_only else self.spanned).total
            for e in self.entries
        )
        return wrappers + self.shim_s * sum(self.shim_calls.values())

    def fold(self, wall_s: float) -> dict[str, dict[str, float]]:
        """Per-layer ``self_s``/``calls``/``share`` plus the two extra rows.

        ``unattributed`` is wall time outside every wrapper; ``trace`` is
        the calibrated wrapper and shim cost.  All rows sum to ``wall_s``
        by construction; :func:`residual` checks the calibration.
        """
        rows: dict[str, dict[str, float]] = {}
        for entry in self.entries:
            row = rows.setdefault(entry.layer, {"self_s": 0.0, "calls": 0})
            row["self_s"] += entry.self_s
            row["calls"] += entry.calls
        rows["unattributed"] = {"self_s": wall_s - self.wrapped_s, "calls": 0}
        rows["trace"] = {"self_s": self.overhead_s(), "calls": 0}
        for row in rows.values():
            row["share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
        return rows


# ---------------------------------------------------------------- calibration
def _empty(*_args, **_kwargs) -> None:
    return None


#: Calls per microbenchmark round, and rounds (the minimum is kept, as for
#: any microbenchmark on a shared host).
CALLS, ROUNDS = 100_000, 5


def calibrate() -> tuple[Costs, Costs, float]:
    """Measure ``c_in``/``c_out`` of the aggregate and the span wrapper, and
    the cost of one counting-shim call.

    ``c_in`` is what the wrapper books as the duration of an empty call,
    less the cost of calling it directly; ``c_out`` is the rest of the
    wrapper's cost.
    """
    from repro.obs.tracer import Tracer

    clock = time.perf_counter
    loop = range(CALLS)

    def best(fn: Callable[[], float]) -> float:
        return min(fn() for _ in range(ROUNDS))

    def loop_only() -> float:
        t0 = clock()
        for _ in loop:
            pass
        return (clock() - t0) / CALLS

    def direct() -> float:
        t0 = clock()
        for _ in loop:
            _empty(1)
        return (clock() - t0) / CALLS

    base_loop = best(loop_only)
    base_call = best(direct) - base_loop
    out = []
    for span in (False, True):
        tracer = Tracer(enabled=True) if span else None
        ledger = Ledger(clock=clock, tracer=tracer)
        entry = Entry("calibration", "empty", span=span, after=(lambda *_: None) if span else None)
        wrapped = ledger.wrap(entry, _empty)
        # Each span wrapper call keeps a span until reset: fewer calls.
        n = CALLS // 5 if span else CALLS

        def timed() -> float:
            ledger.reset()
            t0 = clock()
            for _ in range(n):
                wrapped(1)
            return (clock() - t0) / n

        samples = []
        for _ in range(ROUNDS):
            per_call = timed() - base_loop
            samples.append((per_call, entry.self_s / n))
        per_call, booked = min(samples)
        c_in = max(booked - base_call, 0.0)
        c_out = max(per_call - base_call - c_in, 0.0)
        out.append(Costs(c_in=c_in, c_out=c_out))

    shim = Ledger(clock=clock).counting_shim(_empty, "calibration")

    def shimmed() -> float:
        t0 = clock()
        for _ in loop:
            shim()
        return (clock() - t0) / CALLS

    return out[0], out[1], max(best(shimmed) - base_loop - base_call, 0.0)


#: Largest share of the untraced wall time the tracing cost the calibration
#: missed may take before the ledger is flagged.
RESIDUAL_LIMIT = 0.02


def residual(untraced: list[float], traced: list[float], booked: list[float]) -> float:
    """Tracing cost the calibration missed, as a share of the untraced wall.

    ``traced[i] - booked[i]`` is what traced run ``i`` would have taken had
    the calibrated cost been all of the tracing cost.  The host slows whole
    runs by up to half, so the least disturbed run of each kind stands for
    it, as for ``wall_s``.
    """
    return min(t - b for t, b in zip(traced, booked)) / min(untraced) - 1.0


# ---------------------------------------------------------------- installation
def _resolve(module: Any, spec: str) -> list[tuple[Any, str]]:
    """``(owner, attribute)`` pairs named by one entry-point spec."""
    if spec.endswith("+"):
        # A predictor base: predict/observe of every class that defines them.
        base = getattr(module, spec[:-1])
        classes, todo = [], [base]
        while todo:
            cls = todo.pop()
            if cls not in classes:
                classes.append(cls)
                todo.extend(cls.__subclasses__())
        return [
            (cls, name)
            for cls in classes
            for name in ("predict", "observe")
            if name in vars(cls)
            and not getattr(vars(cls)[name], "__isabstractmethod__", False)
        ]
    if "." not in spec:
        return [(module, spec)]
    cls_name, attr = spec.split(".", 1)
    cls = getattr(module, cls_name)
    if not attr.endswith("*"):
        return [(cls, attr)]
    prefix = attr[:-1]
    return [
        (cls, name)
        for name, value in vars(cls).items()
        if callable(value)
        and name.startswith(prefix)
        and (prefix or not name.startswith("_"))
    ]


def entry_points() -> list[tuple[str, Any, str]]:
    """Every ``(layer, owner, attribute)`` the ledger wraps.

    Raises if a named entry point does not exist, so a rename in the
    program cannot silently drop a layer from the ledger.
    """
    points = []
    for layer, specs in LAYERS.items():
        for module_name, spec in specs:
            resolved = _resolve(importlib.import_module(module_name), spec)
            if not resolved or not all(
                callable(vars(owner).get(name)) for owner, name in resolved
            ):
                raise AttributeError(f"{layer}: no entry point {module_name}:{spec}")
            points.extend((layer, owner, name) for owner, name in resolved)
    return points


@dataclass
class Installation:
    """What :func:`install` replaced, so :func:`uninstall` can put it back."""

    ledger: Ledger
    originals: list[tuple[Any, str, Any]] = field(default_factory=list)
    #: extra per-layer counts read from arguments and return values
    extras: dict[str, float] = field(default_factory=dict)


def _rebind_everywhere(original: Callable, replacement: Callable, saved: list) -> None:
    """Rebind a module-level function in every loaded ``repro`` module."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                saved.append((module, attr, original))
                setattr(module, attr, replacement)


EXTRA_COUNTS = (
    "solvers.iterations",
    "solvers.unconverged",
    "simulator.des.events",
    "simulator.fluid.server_steps",
    "simulator.hybrid.moved",
    "simulator.hybrid.fluid_steps",
    "simulator.hybrid.request_steps",
)


def _hooks(qualname: str, extras: dict[str, float]) -> tuple[Callable | None, Callable | None]:
    """``before``/``after`` hooks that read one entry point's extra counts."""
    if qualname == "ADMMCore.solve":

        def after(_token, _args, result):
            extras["solvers.iterations"] += result.iterations
            extras["solvers.unconverged"] += result.status.value != "optimal"

        return None, after
    if qualname in ("Simulator.run_until", "Simulator.advance"):

        def before(args):
            return args[0].processed

        def after(token, args, _result):
            extras["simulator.des.events"] += args[0].processed - token

        return before, after
    if qualname == "FluidEngine.step":

        def after(_token, args, _result):
            extras["simulator.fluid.server_steps"] += len(args[0]._order)

        return None, after
    if qualname in ("materialize_fleet", "absorb_fleet"):

        def after(_token, _args, result):
            extras["simulator.hybrid.moved"] += result

        return None, after
    if qualname in ("HybridClusterSimulation.run", "SpotWebSystem.run"):
        # Every workload runs each simulation object once, so its tier
        # counters after run() are that run's counts.
        def after(_token, args, _result):
            extras["simulator.hybrid.fluid_steps"] += args[0].tier_steps["fluid"]
            extras["simulator.hybrid.request_steps"] += args[0].tier_steps["request"]

        return None, after
    return None, None


def install(ledger: Ledger) -> Installation:
    """Wrap every entry point of :data:`LAYERS` and count obs accessor calls."""
    inst = Installation(ledger, extras=dict.fromkeys(EXTRA_COUNTS, 0))
    try:
        for layer, owner, name in entry_points():
            original = vars(owner)[name]
            qualname = f"{owner.__name__}.{name}" if isinstance(owner, type) else name
            before, after = _hooks(qualname, inst.extras)
            entry = Entry(
                layer,
                qualname,
                span=layer not in PER_REQUEST,
                before=before,
                after=after,
            )
            wrapper = ledger.wrap(entry, original)
            if isinstance(owner, type):
                inst.originals.append((owner, name, original))
                setattr(owner, name, wrapper)
            else:
                _rebind_everywhere(original, wrapper, inst.originals)
        for module_name, name in OBS_ACCESSORS:
            original = getattr(importlib.import_module(module_name), name)
            _rebind_everywhere(original, ledger.counting_shim(original, name), inst.originals)
    except BaseException:
        uninstall(inst)
        raise
    return inst


def uninstall(inst: Installation) -> None:
    """Restore every attribute :func:`install` replaced, newest first."""
    while inst.originals:
        owner, name, original = inst.originals.pop()
        setattr(owner, name, original)


def reset(inst: Installation) -> None:
    """Zero the ledger (obs call counts included) and the extra counts."""
    inst.ledger.reset()
    for key in inst.extras:
        inst.extras[key] = 0


# ------------------------------------------------------ disabled observability
def obs_off_costs() -> dict[str, float]:
    """Microbenchmarked cost of one disabled-observability use, per accessor.

    A tracer use is accessor + ``NullSpan`` enter/exit; an events or bus use
    is accessor + ``.enabled`` check; a metrics use is accessor + counter
    lookup + ``inc()`` (the registry is always on).
    """
    from repro.obs import get_bus, get_events, get_metrics, get_tracer

    def t_tracer():
        with get_tracer().span("bench.noop"):
            pass

    def t_events():
        return get_events().enabled

    def t_bus():
        return get_bus().enabled

    def t_metrics():
        get_metrics().counter("bench.noop").inc()

    out = {}
    for name, fn in (
        ("get_tracer", t_tracer),
        ("get_events", t_events),
        ("get_bus", t_bus),
        ("get_metrics", t_metrics),
    ):
        best = float("inf")
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            for _ in range(CALLS):
                fn()
            best = min(best, (time.perf_counter() - t0) / CALLS)
        out[name] = best
    return out
