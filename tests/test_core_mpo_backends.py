"""Backend agreement tests and extra runner coverage."""

import numpy as np
import pytest

from repro.core import CostModel, MPOOptimizer
from repro.simulator import CostSimulator
from repro.workloads import constant_workload

from oracles.active_set import solve_qp_active_set


class TestMPOBackends:
    def test_backends_agree(self, small_markets, small_dataset):
        """The ADMM backend reaches the exact active-set optimum of its QP."""
        M = small_dataset.event_covariance()
        targets = np.array([1000.0, 1200.0])
        prices = small_dataset.prices[:2]
        failures = small_dataset.failure_probs[:2]
        H = 2
        opt = MPOOptimizer(
            small_markets,
            horizon=H,
            backend="admm",
            cost_model=CostModel(churn_penalty=0.3),
        )
        res_admm = opt.optimize(targets, prices, failures, M)

        # The same QP, assembled from the optimizer's own pieces.
        N = len(small_markets)
        rows, lower, upper = opt.constraints.build_rows(N, H)
        q = np.zeros(N * H)
        per_req = prices / opt.capacities[None, :]
        for tau in range(H):
            q[tau * N : (tau + 1) * N] = opt.cost_model.provisioning_coefficients(
                per_req[tau], targets[tau], 1.0
            ) + opt.cost_model.sla_coefficients(failures[tau], targets[tau], 0.0)
        res_aset = solve_qp_active_set(opt._hessian(M), q, rows, lower, upper)
        assert res_aset.objective == pytest.approx(
            res_admm.solver.objective, rel=1e-3, abs=1e-5
        )
        np.testing.assert_allclose(
            np.clip(res_aset.x.reshape(H, N), 0.0, None),
            res_admm.plan.fractions,
            atol=5e-3,
        )

    def test_unknown_backend_rejected(self, small_markets):
        for backend in ("simplex", "active_set"):
            with pytest.raises(ValueError, match="backend"):
                MPOOptimizer(small_markets, backend=backend)


class TestRunnerLifetime:
    def test_forced_lifetime_revocations(self, small_dataset):
        """Google-style max lifetime forces periodic revocations."""
        ds = small_dataset
        calm = type(ds)(
            markets=ds.markets,
            prices=ds.prices,
            failure_probs=np.zeros_like(ds.failure_probs),
        )
        trace = constant_workload(48, 100.0)

        class FixedPolicy:
            def decide(self, t, observed, prices, probs):
                counts = np.zeros(6, dtype=np.int64)
                counts[0] = 3
                return counts

        no_life = CostSimulator(calm, trace, seed=0).run(FixedPolicy())
        with_life = CostSimulator(
            calm, trace, seed=0, max_lifetime_intervals=24
        ).run(FixedPolicy())
        assert no_life.revocation_events == 0
        assert with_life.revocation_events >= 1

    def test_lifetime_validation(self, small_dataset):
        with pytest.raises(ValueError):
            CostSimulator(
                small_dataset,
                constant_workload(5, 10.0),
                max_lifetime_intervals=0,
            )
