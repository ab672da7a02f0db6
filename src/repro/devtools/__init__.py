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
  ``spotlint`` console script; CI gates on no findings beyond the
  committed ``spotlint-baseline.json``.
- :mod:`repro.devtools.contracts` — runtime shape/sign/unit contracts
  (``@shapes``, ``@nonneg``, unit-tagged scalars) applied at the hot
  seams and toggled by the ``SPOTWEB_CONTRACTS`` environment variable.

Importing this package loads only the runtime half (plus the spec
grammar it shares with the analyzers); the lint rules and the analyzers
load when the driver runs.
"""

from __future__ import annotations

from repro.devtools.contracts import (
    ContractError,
    UnitScalar,
    contracts_enabled,
    field_units,
    freeze_arrays,
    nonneg,
    per_request_prices,
    require_unit,
    rps,
    set_contracts,
    shapes,
    usd_per_hour,
    usd_per_hour_per_rps,
)

# NOTE: the ``units`` *decorator* is deliberately not re-exported here —
# ``repro.devtools.units`` is the static analyzer subpackage, and a
# same-named attribute would be silently clobbered the moment anything
# imported the submodule.  Use ``from repro.devtools.contracts import
# units`` for the decorator.

__all__ = [
    "ContractError",
    "UnitScalar",
    "contracts_enabled",
    "field_units",
    "freeze_arrays",
    "nonneg",
    "per_request_prices",
    "require_unit",
    "rps",
    "set_contracts",
    "shapes",
    "usd_per_hour",
    "usd_per_hour_per_rps",
]
