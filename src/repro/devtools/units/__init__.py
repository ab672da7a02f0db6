"""``spotunits`` — whole-program units-of-measure dataflow analysis.

An abstract interpreter over the SpotWeb reproduction's numeric code:
every value carries a rational-exponent dimension vector over
``sim_time`` / ``wall_time`` / ``interval`` / ``request`` / ``server``
/ ``dollar`` / ``fraction`` plus an exact scale (``hr`` = 3600 ``s``).
``@units`` and ``@field_units`` declarations
(:mod:`repro.devtools.contracts`) serve as interprocedural summaries
(:mod:`repro.devtools.summaries`) — the same spec strings, parsed by the
same grammar (:mod:`repro.devtools.specs`), that the decorators validate
at import.  See :mod:`repro.devtools.units.analyze` for the SW300-series
rule inventory; the driver (:mod:`repro.devtools.check`, ``spotlint``)
runs it.

Note: the ``@units`` *decorator* lives in
:mod:`repro.devtools.contracts`; this package is the static analyzer.
"""

__all__ = ["analyze", "domain"]
