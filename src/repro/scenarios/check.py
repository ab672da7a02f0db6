"""The invariant oracle: journals in, violations (and an exit code) out.

``python -m repro scenarios check`` feeds scenario journals — fresh from
:func:`~repro.scenarios.runner.run_suite` or re-loaded from JSONL files
— through each scenario's :class:`~repro.scenarios.invariants
.InvariantPack`, plus the cross-engine accuracy gate for cluster
scenarios that ran under both ``request`` and ``hybrid``.  A non-empty
violation list is a failed gate; the report names every broken
invariant with its observed value and bound.

Journals are self-identifying: the ``scenario.begin`` event names the
scenario and engine, so the oracle can check any journal file without
side-channel metadata — including the deliberately-violating fixtures
under ``tests/fixtures/scenarios/`` that prove the oracle can fail.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.events import load_events
from repro.scenarios.invariants import (
    Violation,
    compare_engines,
    evaluate_pack,
    scenario_outcome,
    weighted_compliance,
)
from repro.scenarios.runner import ScenarioRun
from repro.scenarios.suite import SCENARIOS, get_scenario

__all__ = [
    "check_runs",
    "load_run",
    "format_check_report",
]


def _run_compliance(run: ScenarioRun) -> float | None:
    records = list(run.records)
    compliance = weighted_compliance(records)
    if compliance is not None:
        return compliance
    outcome = scenario_outcome(records) or {}
    value = outcome.get("compliance")
    return None if value is None else float(value)


def check_runs(runs: list[ScenarioRun]) -> list[Violation]:
    """Evaluate every run's pack, then the cross-engine agreement gates."""
    violations: list[Violation] = []
    by_scenario: dict[str, dict[str, float]] = {}
    for run in runs:
        scenario = get_scenario(run.scenario)
        violations.extend(
            evaluate_pack(run.label, list(run.records), scenario.pack)
        )
        compliance = _run_compliance(run)
        if compliance is not None:
            by_scenario.setdefault(run.scenario, {})[run.engine] = compliance
    for name, by_engine in by_scenario.items():
        tol = get_scenario(name).engine_agreement_tol
        if tol is not None:
            violations.extend(compare_engines(name, by_engine, tolerance=tol))
    return violations


def load_run(path: str | Path) -> ScenarioRun:
    """Reconstruct a run from its journal file.

    Loads with ``require_resolution=False``: unresolved warnings are an
    invariant-pack *violation* to report, not a loader crash.  The
    ``scenario.begin`` event identifies the run; a journal without one
    (or naming an unregistered scenario) is rejected here, because a
    journal the oracle cannot attribute must not silently pass.
    """
    records = load_events(path, require_resolution=False)
    begin = next(
        (rec for rec in records if rec["kind"] == "scenario.begin"), None
    )
    if begin is None:
        raise ValueError(f"{path}: journal has no scenario.begin event")
    name = begin["attrs"].get("scenario")
    if name not in SCENARIOS:
        raise ValueError(f"{path}: unknown scenario {name!r}")
    return ScenarioRun(
        scenario=str(name),
        engine=str(begin["attrs"].get("engine", "request")),
        seed=int(begin["attrs"].get("seed", 0)),
        records=tuple(records),
    )


def format_check_report(
    runs: list[ScenarioRun], violations: list[Violation]
) -> str:
    """Human-readable oracle report (one line per run, then violations)."""
    lines = [f"scenario oracle: {len(runs)} run(s) checked"]
    for run in runs:
        outcome = scenario_outcome(list(run.records)) or {}
        compliance = _run_compliance(run)
        comp_s = "n/a" if compliance is None else f"{compliance:.4f}"
        cost = outcome.get("cost")
        cost_s = "n/a" if cost is None else f"{float(cost):.3f}"
        bad = sum(1 for v in violations if v.scenario.startswith(run.label))
        status = "FAIL" if bad else "ok"
        lines.append(
            f"  {status:4s} {run.label:28s} compliance={comp_s} "
            f"cost={cost_s}"
        )
    if violations:
        lines.append(f"{len(violations)} invariant violation(s):")
        lines.extend(f"  - {v}" for v in violations)
    else:
        lines.append("all invariants hold")
    return "\n".join(lines)
