"""``spotshape`` — static symbolic array-shape & dtype dataflow analysis.

An intraprocedural abstract interpreter over NumPy expressions: symbolic
shapes (``(H,N)``, ``(N,)``) and dtypes flow through allocations,
elementwise broadcasting, matmul, reshapes and slicing, and the declared
``@shapes`` contracts (:mod:`repro.devtools.contracts`) serve as
interprocedural call summaries.  See
:mod:`repro.devtools.shape.analyze` for the SW200-series rule inventory;
the driver (:mod:`repro.devtools.check`, ``spotlint``) runs it.
"""

from repro.devtools.shape.analyze import (
    HOT_PREFIXES,
    SHAPE_RULES,
    analyze_module,
)
from repro.devtools.shape.domain import ArrayVal
from repro.devtools.shape.summaries import (
    ContractSummary,
    SummaryTable,
    extract_summaries,
)

__all__ = [
    "HOT_PREFIXES",
    "SHAPE_RULES",
    "ArrayVal",
    "ContractSummary",
    "SummaryTable",
    "analyze_module",
    "extract_summaries",
]
