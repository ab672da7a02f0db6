"""SpotWeb reproduction: latency-sensitive web services on transient servers.

A from-scratch Python implementation of the system described in

    Ali-Eldin, Westin, Wang, Sharma, Shenoy.
    "SpotWeb: Running Latency-sensitive Distributed Web Services on
    Transient Cloud Servers."  HPDC 2019.

Package map
-----------
- :mod:`repro.solvers` — OSQP-style ADMM convex QP solver (the CVXPY/SCS
  substitute).
- :mod:`repro.markets` — instance catalog, synthetic spot-price processes,
  revocation models, the transient cloud provider.
- :mod:`repro.workloads` — Wikipedia-like and VoD-like trace generators.
- :mod:`repro.predictors` — spline+AR(1)+CI workload predictor, price and
  failure predictors, baselines and oracles.
- :mod:`repro.core` — the SpotWeb contribution: cost model (Eqs. 3–5),
  multi-period portfolio optimizer (Eq. 6), over-provisioning, controller.
- :mod:`repro.loadbalancer` — transiency-aware WRR balancer + vanilla
  baseline.
- :mod:`repro.simulator` — DES engine, request-level cluster simulation,
  interval-level cost simulator.
- :mod:`repro.baselines` — ExoSphere-in-a-loop, constant portfolio,
  on-demand, Qu-style threshold over-provisioning.
- :mod:`repro.experiments` — one runner per table/figure of the paper.
- :mod:`repro.devtools` — ``spotlint`` (one driver over four static
  analyzers: lint rules, import layering/determinism/purity, array
  shapes, units of measure; ``python -m repro.devtools``) + runtime
  shape/sign/unit contracts guarding the invariants above.
- :mod:`repro.obs` — span tracing, metrics registry, and trace analysis
  threaded through the control loop (off by default).
"""

__version__ = "1.0.0"

__all__ = [
    "solvers",
    "markets",
    "workloads",
    "predictors",
    "core",
    "loadbalancer",
    "simulator",
    "baselines",
    "experiments",
    "devtools",
    "obs",
]
