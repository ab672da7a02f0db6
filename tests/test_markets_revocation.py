"""Unit and property tests for the revocation models."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.markets import (
    CorrelatedRevocationSampler,
    PurchaseOption,
    RevocationModel,
    default_catalog,
    event_covariance,
    failure_covariance,
    generate_price_matrix,
)


@pytest.fixture(scope="module")
def markets():
    return default_catalog().spot_markets(8)


@pytest.fixture(scope="module")
def prices(markets):
    return generate_price_matrix(markets, 24 * 7, seed=0)


class TestRevocationModel:
    def test_probabilities_in_range(self, markets, prices):
        model = RevocationModel(markets, seed=0)
        f = model.probabilities(prices)
        assert f.shape == prices.shape
        assert np.all((f >= 0) & (f <= 0.95))

    def test_ondemand_markets_never_fail(self):
        catalog = default_catalog()
        mixed = [
            catalog.market("m4.large", PurchaseOption.ON_DEMAND),
            catalog.market("m4.large", PurchaseOption.SPOT),
        ]
        prices = generate_price_matrix(mixed, 48, seed=1)
        f = RevocationModel(mixed, seed=1).probabilities(prices)
        assert np.all(f[:, 0] == 0.0)
        assert np.all(f[:, 1] > 0.0)

    def test_price_pressure_raises_failure_probability(self, markets):
        model = RevocationModel(markets, seed=2, price_sensitivity=2.0)
        ondemand = np.array([m.instance.ondemand_price for m in markets])
        cheap = np.tile(0.1 * ondemand, (50, 1))
        pricey = np.tile(0.9 * ondemand, (50, 1))
        assert (
            model.probabilities(pricey).mean()
            > model.probabilities(cheap).mean()
        )

    def test_deterministic_given_seed(self, markets, prices):
        f1 = RevocationModel(markets, seed=3).probabilities(prices)
        f2 = RevocationModel(markets, seed=3).probabilities(prices)
        np.testing.assert_array_equal(f1, f2)

    def test_width_mismatch_rejected(self, markets):
        model = RevocationModel(markets)
        with pytest.raises(ValueError):
            model.probabilities(np.ones((5, 3)))


class TestCovariances:
    def test_failure_covariance_positive_definite(self, markets, prices):
        f = RevocationModel(markets, seed=0).probabilities(prices)
        M = failure_covariance(f)
        assert np.all(np.linalg.eigvalsh(M) > 0)

    def test_event_covariance_diag_is_bernoulli_variance(self):
        probs = np.tile([0.1, 0.3], (50, 1))
        M = event_covariance(probs)
        assert M[0, 0] == pytest.approx(0.1 * 0.9, rel=0.01)
        assert M[1, 1] == pytest.approx(0.3 * 0.7, rel=0.01)

    def test_event_covariance_couples_comoving_markets(self):
        rng = np.random.default_rng(0)
        base = 0.1 + 0.05 * rng.normal(size=200)
        probs = np.clip(np.column_stack([base, base, rng.uniform(0.05, 0.15, 200)]), 0, 1)
        M = event_covariance(probs)
        assert M[0, 1] > 5 * abs(M[0, 2])

    def test_single_row_fallback(self):
        M = failure_covariance(np.array([[0.1, 0.2]]))
        assert M.shape == (2, 2)
        assert np.all(np.linalg.eigvalsh(M) > 0)

    def test_event_covariance_rejects_bad_probs(self):
        with pytest.raises(ValueError):
            event_covariance(np.array([[0.5, 1.5]]))


class TestCorrelatedRevocationSampler:
    def test_marginals_match(self):
        n = 4
        corr = np.eye(n)
        sampler = CorrelatedRevocationSampler(corr, seed=0)
        p = np.array([0.05, 0.2, 0.5, 0.0])
        draws = np.stack([sampler.sample(p) for _ in range(4000)])
        rates = draws.mean(axis=0)
        # Binomial 4-sigma band.
        for i in range(n):
            sigma = np.sqrt(max(p[i] * (1 - p[i]), 1e-9) / 4000)
            assert abs(rates[i] - p[i]) < 4 * sigma + 1e-9

    def test_exact_zero_and_one(self):
        sampler = CorrelatedRevocationSampler(np.eye(2), seed=1)
        draws = np.stack(
            [sampler.sample(np.array([0.0, 1.0])) for _ in range(100)]
        )
        assert not draws[:, 0].any()
        assert draws[:, 1].all()

    def test_positive_correlation_increases_joint_failures(self):
        p = np.array([0.2, 0.2])
        ind = CorrelatedRevocationSampler(np.eye(2), seed=2)
        corr = CorrelatedRevocationSampler(
            np.array([[1.0, 0.9], [0.9, 1.0]]), seed=2
        )
        joint_ind = np.mean(
            [ind.sample(p).all() for _ in range(5000)]
        )
        joint_corr = np.mean(
            [corr.sample(p).all() for _ in range(5000)]
        )
        assert joint_corr > joint_ind * 1.5

    def test_non_psd_correlation_repaired(self):
        bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
        sampler = CorrelatedRevocationSampler(bad, seed=3)
        # Must not raise and must produce valid draws.
        out = sampler.sample(np.array([0.1, 0.1, 0.1]))
        assert out.shape == (3,)

    def test_ndtri_is_norm_ppf_on_the_clipped_domain(self):
        """The sampler's thresholds (and the predictors' CI z) come from
        ``repro.normal.ndtri``, which returns ``norm.ppf``'s bits."""
        from scipy.stats import norm

        from repro.normal import ndtri

        rng = np.random.default_rng(0)
        p = np.concatenate(
            [
                [0.0, 1e-12, 1e-9, 0.5, 0.975, 1 - 1e-9, 1 - 1e-12, 1.0],
                rng.uniform(size=500),
                10.0 ** rng.uniform(-12, 0, size=200),
            ]
        )
        p = np.clip(p, 1e-12, 1 - 1e-12)
        assert ndtri(p).tobytes() == norm.ppf(p).tobytes()

    def test_validation(self):
        sampler = CorrelatedRevocationSampler(np.eye(2), seed=5)
        with pytest.raises(ValueError):
            sampler.sample(np.array([0.1]))
        with pytest.raises(ValueError):
            sampler.sample(np.array([0.1, 1.2]))
        with pytest.raises(ValueError):
            CorrelatedRevocationSampler(np.ones((2, 3)))


def _fresh_interpreter(code: str, *paths: Path) -> str:
    """Run ``code`` in a new interpreter that imports this process's repro
    (and modules from ``paths``)."""
    import os
    import subprocess
    import sys

    import repro

    path = [str(Path(repro.__file__).parents[1]), *map(str, paths)]
    path.append(os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    return out.stdout.strip()


#: The end-to-end benchmark's directory: its ``workloads`` module imports
#: what the benchmark's runs need.
_E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: What no simulation run calls: the optimizers only the test oracles use,
#: the spline fit's FITPACK (until a fit), the metrics endpoint.
#: scipy.stats alone cost ~0.5 s and ~18 MB.
_NOT_IN_A_RUN = (
    "scipy.optimize",
    "scipy.interpolate",
    "scipy.special",
    "scipy.stats",
    "http.server",
)


def test_simulation_imports_leave_out_scipy_stats():
    """What the e2e workloads import, plus a closed loop and a fluid run,
    loads none of the modules that no simulation run calls."""
    code = f"""
import sys
import numpy as np
from repro.baselines import ExoSphereLoopPolicy
from repro.core import CostModel, SpotWebController
from repro.core.policy import SpotWebPolicy
from repro.experiments.fig4a_loadbalancer import run_fig4a
from repro.markets import default_catalog, generate_market_dataset
from repro.predictors import (
    AR1PricePredictor, EWMAPredictor, ReactiveFailurePredictor,
    ReactivePricePredictor, SplinePredictor,
)
from repro.simulator import (
    ClusterConfig, CostSimulator, HybridClusterSimulation, SpotWebSystem,
    SystemConfig,
)
from repro.solvers.result import SolverStatus
from repro.workloads import WorkloadTrace, vod_like, wikipedia_like

markets = default_catalog().subset(["m4.large", "m5.large"]).spot_markets()
dataset = generate_market_dataset(markets, intervals=2, seed=1, interval_seconds=60.0)
controller = SpotWebController(
    markets, EWMAPredictor(alpha=0.5), ReactivePricePredictor(2),
    ReactiveFailurePredictor(2), horizon=2, cost_model=CostModel(churn_penalty=0.2),
)
system = SpotWebSystem(controller, dataset, SystemConfig(interval_seconds=60.0, seed=1))
report = system.run(WorkloadTrace(np.full(2, 4.0), 60.0, name="flat"))
assert report.summary()["served"] > 0
cluster = HybridClusterSimulation(ClusterConfig(seed=1), engine="hybrid", keep_raw=False)
for _ in range(4):
    cluster.add_server(100.0, boot_seconds=0.0)
cluster.sim.advance(cluster.config.warmup_seconds + 1.0)
cluster.run(30.0, lambda t: 200.0)
assert cluster.tier_steps["fluid"] > 0
loaded = [m for m in {_NOT_IN_A_RUN!r} if m in sys.modules]
loaded += sorted(
    m for m in sys.modules
    if m.startswith("repro.experiments.") and m != "repro.experiments.fig4a_loadbalancer"
)
print(loaded)
"""
    assert _fresh_interpreter(code) == "[]"


def test_spline_predictor_loads_fitpack_on_its_first_fit():
    """FITPACK is deferred into the first spline fit, not dropped."""
    code = """
import sys
from repro.predictors import SplinePredictor
predictor = SplinePredictor(intervals_per_day=8, window_days=2, period_days=1)
for t in range(7):
    predictor.observe(10.0 + t % 3)
before = "scipy.interpolate" in sys.modules
predictor.observe(11.0)
print(before, predictor._spline is not None, "scipy.interpolate" in sys.modules)
"""
    assert _fresh_interpreter(code) == "False True True"


def test_runs_without_a_solver_load_no_scipy():
    """What the e2e workloads import, a Fig. 4(a) hybrid run with its
    revocation and a warm fluid run build no QP solver, so they load no
    SciPy at all."""
    code = """
import sys
import workloads
from repro.experiments.fig4a_loadbalancer import run_fig4a
from repro.simulator import ClusterConfig, HybridClusterSimulation

results = run_fig4a(scale=0.02, engine="hybrid")
assert results["vanilla"].drop_rate > results["spotweb"].drop_rate > 0
cluster = HybridClusterSimulation(ClusterConfig(seed=1), engine="hybrid", keep_raw=False)
for _ in range(4):
    cluster.add_server(100.0, boot_seconds=0.0)
cluster.sim.advance(cluster.config.warmup_seconds + 1.0)
cluster.run(30.0, lambda t: 200.0)
assert cluster.tier_steps["fluid"] > 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    assert _fresh_interpreter(code, _E2E) == "[]"


def test_closed_loop_loads_lapack_on_its_first_factorization():
    """``scipy.linalg`` is deferred into the first MPO solve, not dropped."""
    code = """
import sys
import numpy as np
from repro.core import CostModel, SpotWebController
from repro.markets import default_catalog, generate_market_dataset
from repro.predictors import EWMAPredictor, ReactiveFailurePredictor, ReactivePricePredictor
from repro.simulator import SpotWebSystem, SystemConfig
from repro.workloads import WorkloadTrace

markets = default_catalog().subset(["m4.large", "m5.large"]).spot_markets()
dataset = generate_market_dataset(markets, intervals=2, seed=1, interval_seconds=60.0)
controller = SpotWebController(
    markets, EWMAPredictor(alpha=0.5), ReactivePricePredictor(2),
    ReactiveFailurePredictor(2), horizon=2, cost_model=CostModel(churn_penalty=0.2),
)
system = SpotWebSystem(controller, dataset, SystemConfig(interval_seconds=60.0, seed=1))
before = "scipy.linalg" in sys.modules
report = system.run(WorkloadTrace(np.full(2, 4.0), 60.0, name="flat"))
print(before, report.summary()["served"] > 0, "scipy.linalg" in sys.modules)
"""
    assert _fresh_interpreter(code) == "False True True"


#: One cold clock each, in a process that has not factorized yet:
#: (import, call).
_COLD_CLOCKS = {
    "bench_mpo": (
        "from repro.bench.mpo import bench_mpo",
        'bench_mpo(market_counts=(12,), horizons=(2,), backends=("admm",), repeats=1)',
    ),
    "fig7b": (
        "from repro.experiments.fig7b_scalability import run_fig7b",
        'run_fig7b(market_counts=(9,), horizons=(2,), repeats=1)',
    ),
    "parallel_speedup": (
        "from repro.bench.sim import check_parallel_speedup",
        "check_parallel_speedup(reps=1, num_markets=2, max_workers=1)",
    ),
}


@pytest.mark.parametrize("name", sorted(_COLD_CLOCKS))
def test_timers_start_after_lapack_loads(name):
    """No benchmark clock brackets ``scipy.linalg``'s import: every clock
    read of a cold cell and of the serial sweep finds it loaded."""
    setup, call = _COLD_CLOCKS[name]
    code = f"""
import sys
import time
{setup}
before = "scipy.linalg" in sys.modules
clock, loaded = time.perf_counter, []

def perf_counter():
    loaded.append("scipy.linalg" in sys.modules)
    return clock()

time.perf_counter = perf_counter
{call}
print(before, len(loaded) > 0, all(loaded))
"""
    assert _fresh_interpreter(code) == "False True True"


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 8),
    rows=st.integers(2, 40),
)
def test_event_covariance_always_psd(seed, n, rows):
    rng = np.random.default_rng(seed)
    probs = rng.uniform(0.0, 0.5, size=(rows, n))
    M = event_covariance(probs)
    w = np.linalg.eigvalsh(M)
    assert np.all(w > 0)
    np.testing.assert_allclose(M, M.T, atol=1e-12)
