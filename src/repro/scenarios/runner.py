"""Scenario execution: single runs, suites, and journal export.

One *cell* is ``(scenario, engine, seed)``; :func:`run_suite` expands a
pack into cells and maps :func:`run_cell` over them with
:func:`repro.parallel.pmap` — each cell journals into its own private
log (inside the episode/portfolio runners), so serial and parallel
suites produce identical per-cell journals, and the cell's journal file
is a pure function of the cell key.

Cluster scenarios run once per requested engine (``request`` is the DES
reference, ``hybrid`` the two-tier engine under accuracy test);
portfolio scenarios are engine-independent and run once under the
``interval`` label.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.obs.events import write_events
from repro.parallel import pmap
from repro.scenarios.episode import run_episode
from repro.scenarios.portfolio import run_portfolio
from repro.scenarios.suite import Scenario, get_scenario, scenario_names

__all__ = [
    "INTERVAL_ENGINE",
    "ScenarioRun",
    "engines_for",
    "journal_filename",
    "run_scenario",
    "run_cell",
    "run_suite",
    "write_run",
]

#: Engine label for interval-level (portfolio) scenarios.
INTERVAL_ENGINE = "interval"


@dataclass(frozen=True)
class ScenarioRun:
    """One executed cell: its key and the journal it produced."""

    scenario: str
    engine: str
    seed: int
    records: tuple[dict, ...]

    @property
    def label(self) -> str:
        return f"{self.scenario}[{self.engine}]"


def engines_for(
    scenario: Scenario | str, engines: tuple[str, ...]
) -> list[str]:
    """The engine labels one scenario (by object or name) runs under."""
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if scenario.kind == "portfolio":
        return [INTERVAL_ENGINE]
    return list(engines)


def journal_filename(scenario: str, engine: str) -> str:
    """Canonical journal file name for one cell (seed-independent)."""
    return f"events_scenario_{scenario}_{engine}.jsonl"


def run_scenario(
    name: str, *, engine: str = "request", seed: int = 0
) -> list[dict]:
    """Run one scenario under one engine; returns its journal records."""
    scenario = get_scenario(name)
    if scenario.kind == "portfolio":
        return run_portfolio(scenario.spec, seed=seed)
    return run_episode(scenario.spec, engine=engine, seed=seed)


# spotlint: allow-shared-state -- each cell swaps in its own private
# event log (via the episode/portfolio runners) and restores the global
# one before returning; results depend only on the cell key.
def run_cell(cell: tuple[str, str, int]) -> ScenarioRun:
    """Execute one ``(scenario, engine, seed)`` cell (pmap worker)."""
    name, engine, seed = cell
    records = run_scenario(name, engine=engine, seed=seed)
    return ScenarioRun(
        scenario=name, engine=engine, seed=seed, records=tuple(records)
    )


def run_suite(
    names: list[str] | None = None,
    *,
    pack: str = "quick",
    engines: tuple[str, ...] = ("request", "hybrid"),
    seed: int = 0,
    max_workers: int | None = None,
) -> list[ScenarioRun]:
    """Run a scenario pack across engines; returns runs in cell order."""
    if names is None:
        names = scenario_names(pack)
    cells: list[tuple[str, str, int]] = []
    for name in names:
        scenario = get_scenario(name)
        for engine in engines_for(scenario, tuple(engines)):
            cells.append((name, engine, seed))
    return pmap(run_cell, cells, max_workers=max_workers)


def write_run(run: ScenarioRun, out_dir: str | Path) -> Path:
    """Export one run's journal under its canonical file name."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return write_events(
        list(run.records),
        out_dir / journal_filename(run.scenario, run.engine),
    )
