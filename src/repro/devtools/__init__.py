"""Developer tooling for the SpotWeb reproduction.

Two halves, both enforcing the same domain invariants from different
directions:

- ``spotlint`` — static analysis with SpotWeb-specific rules, run by one
  driver (:mod:`repro.devtools.check`) over four analyzers: per-file
  lint rules (:mod:`repro.devtools.rules`, SW001–SW012: seeded
  ``Generator`` RNG threading, no wall-clock inside the DES, no float
  ``==``, genuinely immutable frozen dataclasses, explicit ``__all__``),
  whole-program layering/determinism/purity (:mod:`repro.devtools.graph`),
  symbolic array shapes (:mod:`repro.devtools.shape`) and units of
  measure (:mod:`repro.devtools.units`).  Run it with
  ``python -m repro.devtools src/ tests/ --exclude tests/fixtures`` or the
  ``spotlint`` console script; CI gates on zero findings, and a finding
  kept on purpose carries a ``# spotlint: disable=SWxxx`` comment.
- :mod:`repro.devtools.contracts` — the contracts those analyzers read
  at the hot seams: ``@shapes`` and ``@nonneg`` also check each call
  while switched on (the test suite switches them on; every other
  process runs with them off), while ``@units`` and ``@field_units``
  are declarations that return the function or class unchanged.

Importing this package loads only the contracts (plus the spec grammar
they share with the analyzers); the lint rules and the analyzers
load when the driver runs.
"""

from __future__ import annotations

from repro.devtools.contracts import (
    ContractError,
    field_units,
    freeze_arrays,
    nonneg,
    per_request_prices,
    set_contracts,
    shapes,
)

# NOTE: the ``units`` *decorator* is deliberately not re-exported here —
# ``repro.devtools.units`` is the static analyzer subpackage, and a
# same-named attribute would be silently clobbered the moment anything
# imported the submodule.  Use ``from repro.devtools.contracts import
# units`` for the decorator.

__all__ = [
    "ContractError",
    "field_units",
    "freeze_arrays",
    "nonneg",
    "per_request_prices",
    "set_contracts",
    "shapes",
]
