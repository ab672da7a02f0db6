"""``spotunits`` — whole-program units-of-measure dataflow analysis.

An abstract interpreter over the SpotWeb reproduction's numeric code:
every value carries a rational-exponent dimension vector over
``sim_time`` / ``wall_time`` / ``interval`` / ``request`` / ``server``
/ ``dollar`` / ``fraction`` plus an exact scale (``hr`` = 3600 ``s``).
``@units`` and ``@field_units`` declarations
(:mod:`repro.devtools.contracts`) serve as interprocedural summaries —
the same spec strings, parsed by the same grammar
(:mod:`repro.devtools.specs`), that the runtime checker enforces.  See
:mod:`repro.devtools.units.analyze` for the SW300-series rule inventory;
the driver (:mod:`repro.devtools.check`, ``spotlint``) runs it.

Note: the ``@units`` *decorator* lives in
:mod:`repro.devtools.contracts`; this package is the static analyzer.
"""

from repro.devtools.units.analyze import UNIT_RULES, analyze_module
from repro.devtools.units.domain import classify_mismatch
from repro.devtools.units.summaries import (
    ClassUnits,
    UnitContract,
    UnitTable,
    extract_unit_summaries,
)

__all__ = [
    "UNIT_RULES",
    "ClassUnits",
    "UnitContract",
    "UnitTable",
    "analyze_module",
    "classify_mismatch",
    "extract_unit_summaries",
]
