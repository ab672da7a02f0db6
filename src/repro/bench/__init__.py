"""Machine-readable performance baselines (``BENCH_*.json``) and perf gates.

Every PR that touches the solver or simulator needs a number to beat; this
package produces it, behind one entry point, ``python -m repro bench``:

- :mod:`repro.bench.mpo` — MPO solve latency per ``(markets, horizon,
  backend)`` cell: cold start and warm re-solve, structured-vs-dense
  speedups, and the objective gap between backends.
- :mod:`repro.bench.sim` — :class:`repro.simulator.CostSimulator`
  intervals/second under an optimizer-free policy, cluster-engine cells
  timing the request-level testbed against the two-tier hybrid engine,
  and the checks recorded in no file: hybrid P99 accuracy, the 2k req/s
  speedup smoke cell and the serial-vs-parallel Table-1 sweep.
- :mod:`repro.bench.report` — the versioned schemas, JSON persistence,
  and every bound as a named constant, applied by
  :func:`~repro.bench.report.gate_failures`.
"""

__all__ = ["mpo", "report", "sim"]
