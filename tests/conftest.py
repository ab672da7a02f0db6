"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.devtools.contracts import set_contracts
from repro.markets import default_catalog, generate_market_dataset
from repro.workloads import wikipedia_like

# The runtime contract layer (shape/sign/unit checks at the hot seams) is
# always active under the test suite, regardless of SPOTWEB_CONTRACTS.
set_contracts(True)


REPO = Path(__file__).resolve().parents[1]

# The one static-analysis gate, exactly as CI and the baseline workflow
# run it: every analyzer over src/ and tests/, fixtures excluded.
GATE_ARGS = ["src/", "tests/", "--exclude", "tests/fixtures"]


@dataclass(frozen=True)
class GateRun:
    code: int
    payload: dict
    elapsed_s: float
    cache: Path


@pytest.fixture(scope="session")
def spotlint_gate(tmp_path_factory):
    """The canonical gate, run cold once per session from the repo root
    (baseline fingerprints hash repo-relative paths).  The cache it leaves
    lets each analyzer's own real-tree test re-run that analyzer warm."""
    from repro.devtools.check import main

    cache = tmp_path_factory.mktemp("spotlint") / "cache.json"
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(REPO)
        start_s = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(
                [*GATE_ARGS, "--cache", str(cache), "--format", "json"]
            )
        elapsed_s = time.perf_counter() - start_s
    return GateRun(code, json.loads(out.getvalue()), elapsed_s, cache)


@pytest.fixture
def gate_cache(spotlint_gate, tmp_path):
    """A private copy of the gate's warm cache (a run rewrites its cache)."""
    return Path(shutil.copy(spotlint_gate.cache, tmp_path / "cache.json"))


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def small_markets(catalog):
    """Six spot markets — enough for portfolio structure, fast to solve."""
    return catalog.spot_markets(6)


@pytest.fixture(scope="session")
def small_dataset(small_markets):
    """One week of hourly market data over the six markets."""
    return generate_market_dataset(small_markets, intervals=7 * 24, seed=123)


@pytest.fixture(scope="session")
def wiki_week():
    """One week of the Wikipedia-like workload at a 2000 req/s peak."""
    return wikipedia_like(1, seed=123).scaled(2000.0)


def random_feasible_qp(rng: np.random.Generator, n: int, m: int):
    """A random strictly convex QP with a guaranteed-feasible box."""
    from repro.solvers import QPProblem

    L = rng.normal(size=(n, n))
    P = L @ L.T + 0.1 * np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    Ax0 = A @ x0
    slack_lo = rng.uniform(0.05, 2.0, size=m)
    slack_hi = rng.uniform(0.05, 2.0, size=m)
    return QPProblem(P, q, A, Ax0 - slack_lo, Ax0 + slack_hi)
