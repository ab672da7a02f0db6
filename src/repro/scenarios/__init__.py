"""Adversarial scenario DSL and CI-gated invariant oracle.

The paper's claims live or die in the ugly cases — correlated
revocation storms, price wars, flash crowds, capacity droughts,
multi-week drift — but the default synthetic markets are mean-reverting
and mild.  This package makes the ugly cases first-class and
*enforceable*:

- :mod:`repro.scenarios.episode` / :mod:`repro.scenarios.portfolio` —
  seeded scenario runners over the request-level testbed and the
  interval-level cost simulator, composing the market injectors
  (:mod:`repro.markets.injectors`) and flash-crowd compositor
  (:mod:`repro.workloads.flashcrowd`).
- :mod:`repro.scenarios.invariants` — per-scenario invariant packs (SLO
  floor, cost ceiling, stranded sessions, causal warning resolution,
  fluid conservation, stress witnesses) evaluated against
  ``spotweb-events/1`` journals.
- :mod:`repro.scenarios.suite` — the registry of scenario families with
  their packs; ``quick`` entries run on every push, the full grid runs
  nightly.
- :mod:`repro.scenarios.runner` / :mod:`repro.scenarios.check` — cell
  execution (serial == parallel, byte-identical journals) and the
  oracle behind ``python -m repro scenarios run|list|check``.

Cluster scenarios execute under both ``engine=request`` and
``engine=hybrid``, so the suite doubles as a standing accuracy gate for
the two-tier fluid engine.
"""

from repro.scenarios.check import (
    check_runs,
    format_check_report,
    load_run,
)
from repro.scenarios.episode import EpisodeSpec, StormSpec, run_episode
from repro.scenarios.invariants import (
    InvariantPack,
    Violation,
    compare_engines,
    evaluate_pack,
    scenario_outcome,
    unresolved_warnings,
    weighted_compliance,
)
from repro.scenarios.portfolio import CappedPolicy, PortfolioSpec, run_portfolio
from repro.scenarios.runner import (
    INTERVAL_ENGINE,
    ScenarioRun,
    engines_for,
    journal_filename,
    run_cell,
    run_scenario,
    run_suite,
    write_run,
)
from repro.scenarios.suite import (
    SCENARIOS,
    Scenario,
    get_scenario,
    scenario_names,
)

__all__ = [
    "check_runs",
    "format_check_report",
    "load_run",
    "EpisodeSpec",
    "StormSpec",
    "run_episode",
    "InvariantPack",
    "Violation",
    "compare_engines",
    "evaluate_pack",
    "scenario_outcome",
    "unresolved_warnings",
    "weighted_compliance",
    "CappedPolicy",
    "PortfolioSpec",
    "run_portfolio",
    "INTERVAL_ENGINE",
    "ScenarioRun",
    "engines_for",
    "journal_filename",
    "run_cell",
    "run_scenario",
    "run_suite",
    "write_run",
    "SCENARIOS",
    "Scenario",
    "get_scenario",
    "scenario_names",
]
