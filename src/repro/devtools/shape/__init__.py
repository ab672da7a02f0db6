"""``spotshape`` — static symbolic array-shape & dtype dataflow analysis.

An intraprocedural abstract interpreter over NumPy expressions: symbolic
shapes (``(H,N)``, ``(N,)``) and dtypes flow through allocations,
elementwise broadcasting, matmul, reshapes and slicing, and the declared
``@shapes`` contracts (:mod:`repro.devtools.contracts`) serve as
interprocedural call summaries (:mod:`repro.devtools.summaries`).  See
:mod:`repro.devtools.shape.analyze` for the SW200-series rule inventory;
the driver (:mod:`repro.devtools.check`, ``spotlint``) runs it.
"""

__all__ = ["analyze", "domain"]
