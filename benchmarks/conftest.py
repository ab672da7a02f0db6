"""Benchmarks measure the hot path as deployed: runtime contracts off
(equivalent to running with SPOTWEB_CONTRACTS=0)."""

from repro.devtools.contracts import set_contracts

set_contracts(False)
