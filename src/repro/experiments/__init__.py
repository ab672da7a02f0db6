"""Experiment runners — one module per table/figure of the paper.

Each module exposes a ``run_*`` function returning a result dataclass plus a
``format_*`` helper producing the rows/series the paper reports.
:mod:`claims` states what each result must show, as one table that the
tests check at small grids and ``benchmarks/test_claims.py`` at the
paper's; the ``examples/`` scripts call the runners directly.

Index (see DESIGN.md for the full mapping):

- :mod:`table1` — qualitative feature comparison.
- :mod:`fig3_workloads` — workload traces and their statistics.
- :mod:`fig4a_loadbalancer` — transiency-aware vs vanilla LB under
  correlated revocations (request-level DES).
- :mod:`fig4bcd_prediction` — prediction-error distributions with and
  without CI padding.
- :mod:`fig5_price_awareness` — constant portfolio vs MPO under moving
  prices (3 markets).
- :mod:`fig6a_constant` — cost vs constant portfolio + oracle autoscaler.
- :mod:`fig6b_exosphere` — cost vs ExoSphere-in-a-loop across market counts
  and horizons.
- :mod:`fig7a_accuracy` — savings vs prediction accuracy.
- :mod:`fig7b_scalability` — optimizer solve time vs markets and horizon.
- :mod:`lookahead` — Sec. 7 discussion: when longer look-ahead helps
  (slow-start servers).
- :mod:`gcloud` — Sec. 7 discussion: Google-preemptible mode (flat prices,
  24-hour forced lifetime).
- :mod:`claims` — the paper's claims as one table over the runners above,
  plus the ablations and the predictor shootout.

Nothing is imported here: each command imports only its own module, so a
run of one experiment does not load the other ten (``table1`` alone brings
the process pool with it).
"""

__all__ = [
    "table1",
    "fig3_workloads",
    "fig4a_loadbalancer",
    "fig4bcd_prediction",
    "fig5_price_awareness",
    "fig6a_constant",
    "fig6b_exosphere",
    "fig7a_accuracy",
    "fig7b_scalability",
    "lookahead",
    "gcloud",
    "claims",
]
